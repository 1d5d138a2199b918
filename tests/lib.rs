//! Shared helpers for Orion-RS integration tests.

use orion_core::durable::{SNAPSHOT_FILE, WAL_FILE};
use orion_core::prelude::*;
use orion_pdf::prelude::*;
use orion_sql::DurableSession;
use orion_storage::codec::encode_joint;
use orion_storage::GroupCommitConfig;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

pub use orion_obs::scratch_dir;

/// A copy of the committed table `name` of a session's engine.
pub fn stored(session: &DurableSession, name: &str) -> Relation {
    session.db().with_tables(|t, _| t[name].clone())
}

/// A copy of every committed table of a session's engine, keyed by name.
pub fn stored_tables(session: &DurableSession) -> HashMap<String, Relation> {
    session.db().with_tables(|t, _| t.clone())
}

/// Builds the paper's Table II relation and its registry.
pub fn table2() -> (HashMap<String, Relation>, HistoryRegistry) {
    let mut reg = HistoryRegistry::new();
    let schema =
        ProbSchema::new(vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)], vec![])
            .unwrap();
    let mut rel = Relation::new("T", schema);
    rel.insert_simple(
        &mut reg,
        &[],
        &[
            ("a", Pdf1::discrete(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap()),
            ("b", Pdf1::discrete(vec![(1.0, 0.6), (2.0, 0.4)]).unwrap()),
        ],
    )
    .unwrap();
    rel.insert_simple(&mut reg, &[], &[("a", Pdf1::certain(7.0)), ("b", Pdf1::certain(3.0))])
        .unwrap();
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), rel);
    (tables, reg)
}

/// Canonical fingerprint of a database state, invariant under the two
/// identity allocators that differ across runs:
///
/// * attribute ids are replaced by `table.column` names;
/// * pdf ids are remapped to dense first-seen order over a deterministic
///   walk (tables by name, tuples in order, dims then ancestors).
///
/// Covers schemas, certain values, per-node joints (exact encoded bytes,
/// so probability masses are compared bit-for-bit), ancestor sets, tuple
/// existence masses, and — for every base reachable from some tuple — its
/// attribute list, joint, phantom flag and refcount. Unreachable bases
/// (a replayed base record whose tuple frame died in a crash) are
/// deliberately invisible: they are logically unobservable garbage.
///
/// Shared by the crash-recovery oracle and the transaction consistency
/// checker so both compare the exact same notion of logical state.
pub fn fingerprint(
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    stats: &StatsCatalog,
) -> String {
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    let mut attr_names: HashMap<AttrId, String> = HashMap::new();
    for name in &names {
        for c in tables[*name].schema.columns() {
            attr_names.insert(c.id, format!("{name}.{}", c.name));
        }
    }
    let col = |id: &AttrId| attr_names.get(id).cloned().unwrap_or_else(|| format!("?{id}"));

    let mut remap: HashMap<PdfId, usize> = HashMap::new();
    let mut seen: Vec<PdfId> = Vec::new();
    let dense = |id: PdfId, remap: &mut HashMap<PdfId, usize>, seen: &mut Vec<PdfId>| {
        *remap.entry(id).or_insert_with(|| {
            seen.push(id);
            seen.len() - 1
        })
    };

    let mut out = String::new();
    for name in &names {
        let rel = &tables[*name];
        write!(out, "table {name} schema=[").unwrap();
        for c in rel.schema.columns() {
            write!(out, "({} {:?} u={})", c.name, c.ty, c.uncertain).unwrap();
        }
        let deps: Vec<Vec<String>> =
            rel.schema.deps().iter().map(|g| g.iter().map(&col).collect()).collect();
        writeln!(out, "] deps={deps:?}").unwrap();
        for t in rel.tuples.iter() {
            let mut nodes: Vec<String> = Vec::with_capacity(t.nodes.len());
            for n in &t.nodes {
                let dims: Vec<String> = n
                    .dims
                    .iter()
                    .map(|d| {
                        let base = dense(d.var.base, &mut remap, &mut seen);
                        let vis = d.column.as_ref().map(&col);
                        format!("b{base}.{}:{vis:?}", d.var.dim)
                    })
                    .collect();
                let anc: Vec<usize> =
                    n.ancestors.iter().map(|&a| dense(a, &mut remap, &mut seen)).collect();
                let mut joint = Vec::new();
                encode_joint(&n.joint, &mut joint);
                nodes.push(format!("dims={dims:?} anc={anc:?} joint={}", hex(&joint)));
            }
            nodes.sort(); // node order within a tuple is not significant
            writeln!(
                out,
                "  tuple certain={:?} exists={:.12e} nodes={nodes:?}",
                t.certain,
                t.naive_existence()
            )
            .unwrap();
        }
    }
    for (i, raw) in seen.iter().enumerate() {
        let b = reg.base(*raw).expect("reachable base must be registered");
        let attrs: Vec<String> = b.attrs.iter().map(&col).collect();
        let mut joint = Vec::new();
        encode_joint(&b.joint, &mut joint);
        writeln!(
            out,
            "base b{i} attrs={attrs:?} phantom={} refs={} joint={}",
            b.phantom,
            reg.ref_count(*raw),
            hex(&joint)
        )
        .unwrap();
    }
    // The stats catalog must survive crashes bitwise: compare its exact
    // snapshot encoding.
    writeln!(out, "stats {}", hex(&stats.encode())).unwrap();
    out
}

/// Lowercase hex of a byte string.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::with_capacity(bytes.len() * 2), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

/// Opens (creating if absent) a durable database with default group-commit
/// tunables, running crash recovery.
pub fn open_db(dir: &Path) -> SharedDurableDb {
    SharedDurableDb::open(dir, GroupCommitConfig::default())
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()))
}

/// `CREATE TABLE` as a single-statement transaction — what an autocommit
/// SQL statement does. Returns the commit sequence number.
pub fn txn_create_table(db: &SharedDurableDb, name: &str, schema: ProbSchema) -> EngineResult<u64> {
    let mut txn = Txn::begin(db);
    txn.create_table(name, schema)?;
    txn.commit()
}

/// A one-row `INSERT` with explicit dependency-set joints, as a
/// single-statement transaction.
pub fn txn_insert(
    db: &SharedDurableDb,
    table: &str,
    certain: &[(&str, Value)],
    uncertain: Vec<(Vec<&str>, JointPdf)>,
) -> EngineResult<u64> {
    let mut txn = Txn::begin(db);
    txn.insert(table, certain, uncertain)?;
    txn.commit()
}

/// A one-row `INSERT` of independent per-column pdfs, as a
/// single-statement transaction.
pub fn txn_insert_simple(
    db: &SharedDurableDb,
    table: &str,
    certain: &[(&str, Value)],
    pdfs: &[(&str, Pdf1)],
) -> EngineResult<u64> {
    let mut txn = Txn::begin(db);
    txn.insert_simple(table, certain, pdfs)?;
    txn.commit()
}

/// A recovered database directory: the open handle plus a copy of the
/// tables, registry and stats catalog recovery rebuilt.
pub struct Recovered {
    /// The handle recovery opened (drop it before reopening the directory).
    pub db: SharedDurableDb,
    /// Recovered relations, by table name.
    pub tables: HashMap<String, Relation>,
    /// Recovered history registry.
    pub reg: HistoryRegistry,
    /// Recovered ANALYZE statistics.
    pub stats: StatsCatalog,
}

impl Recovered {
    /// Rows in `table` (0 when recovery rebuilt no such table).
    pub fn rows(&self, table: &str) -> usize {
        self.tables.get(table).map_or(0, Relation::len)
    }

    /// [`fingerprint`] of the recovered state.
    pub fn fingerprint(&self) -> String {
        fingerprint(&self.tables, &self.reg, &self.stats)
    }
}

/// Opens `dir` (running crash recovery) and copies out what it rebuilt.
pub fn recover(dir: &Path) -> Recovered {
    let db = open_db(dir);
    let (tables, reg) = db.with_tables(|t, r| (t.clone(), r.clone()));
    let stats = db.stats_catalog();
    Recovered { db, tables, reg, stats }
}

/// Rebuilds the directory a crash leaves behind in a fresh `scratch`:
/// `snapshot` (when there is one) as `snapshot.db` and `wal_prefix` as
/// `wal.log`. Whatever `scratch` held before is removed first.
pub fn stage_crash(scratch: &Path, snapshot: Option<&[u8]>, wal_prefix: &[u8]) {
    std::fs::remove_dir_all(scratch).ok();
    std::fs::create_dir_all(scratch).unwrap();
    if let Some(snap) = snapshot {
        std::fs::write(scratch.join(SNAPSHOT_FILE), snap).unwrap();
    }
    std::fs::write(scratch.join(WAL_FILE), wal_prefix).unwrap();
}

/// Number of operations whose frame fits entirely inside `bytes[..cut]`,
/// mirroring the WAL replay rule: parsing stops at the first incomplete
/// frame, and every whole frame is one commit.
///
/// A transaction's group frame (13) completes one operation per member
/// that is not a base pdf (2) — all at once, because the frame survives
/// whole or not at all. A bare schema (1), tuple (3), stats (5), delete
/// (9), update (10), index-create (11) or index-drop (12) frame completes
/// one operation; base (2) and epoch (4) frames complete none.
pub fn committed_ops(bytes: &[u8], cut: usize) -> usize {
    let mut off = 0usize;
    let mut ops = 0;
    while off + 8 <= cut {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if off + 8 + len > cut {
            break;
        }
        let frame = &bytes[off + 8..off + 8 + len];
        ops += match frame.first() {
            Some(13) => group_members(frame).filter(|m| m[0] != 2).count(),
            Some(1 | 3 | 5 | 9 | 10 | 11 | 12) => 1,
            _ => 0,
        };
        off += 8 + len;
    }
    ops
}

/// The member records of a group frame `[13][u32 n][n × (u32 len, record)]`.
fn group_members(frame: &[u8]) -> impl Iterator<Item = &[u8]> {
    let n = u32::from_le_bytes(frame[1..5].try_into().unwrap());
    let mut at = 5usize;
    (0..n).map(move |_| {
        let len = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap()) as usize;
        let member = &frame[at + 4..at + 4 + len];
        at += 4 + len;
        member
    })
}

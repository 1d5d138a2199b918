//! Crash-recovery oracle: a differential test between [`SharedDurableDb`]
//! and a plain in-memory model applying the identical workload.
//!
//! Each scenario runs a randomized (or scripted) sequence of operations —
//! table creation, simple and joint-pdf inserts (each a single-statement
//! transaction, as autocommit SQL runs them), `ANALYZE` stats collection,
//! index DDL, checkpoints — against both sides,
//! recording the oracle's *canonical
//! fingerprint* after every operation that commits a WAL record. It then
//! simulates a crash at **every byte offset** of the surviving write-ahead
//! log: for each cut it reconstructs the on-disk state (snapshot +
//! truncated WAL), recovers, and asserts the recovered database is
//! bit-identical (relations, dependency-set joints, ancestor sets, base
//! refcounts, existence masses, secondary-index definitions) to the oracle
//! at exactly the number of operations whose commit frame fits in the
//! surviving prefix. Recovery must also be idempotent: a second open lands
//! on the same fingerprint. Every index definition that survives a cut
//! must additionally *answer* exactly like a fresh rebuild over the
//! recovered data — trees are never persisted, so this pins the
//! rebuild-on-recovery path itself.
//!
//! The fingerprint canonicalizes identities that legitimately differ
//! between two runs — attribute ids come from a process-global allocator
//! and pdf ids are remapped to first-seen dense order — so the comparison
//! checks logical state, not allocator accidents.
//!
//! Set `ORION_ORACLE_SEED` to replay `oracle_env_seeded_workload` with a
//! specific seed (used by `scripts/check.sh` to pin three seeds in CI).

use orion_core::durable::{SNAPSHOT_FILE, WAL_FILE};
use orion_core::pindex::{BuiltIndex, IndexCatalog, IndexDef, IndexKind};
use orion_core::prelude::*;
use orion_pdf::prelude::*;
use orion_tests::{
    committed_ops, fingerprint, open_db, recover, scratch_dir, stage_crash, txn_create_table,
    txn_insert, txn_insert_simple,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::path::Path;

fn oracle_schema() -> ProbSchema {
    ProbSchema::new(
        vec![
            ("id", ColumnType::Int, false),
            ("x", ColumnType::Real, true),
            ("y", ColumnType::Real, true),
        ],
        vec![],
    )
    .unwrap()
}

/// One step of the differential workload.
#[derive(Debug, Clone)]
enum Op {
    /// Create table `t{0}` (skipped on both sides if it already exists).
    Create(u8),
    /// Insert with two independent per-column pdfs.
    Simple { table: u8, key: i64, mean: f64 },
    /// Insert with one correlated two-dimensional dependency set whose
    /// total mass is < 1 (a maybe-tuple, exercising existence mass).
    Joint { table: u8, key: i64, p: f64 },
    /// `ANALYZE t{0}`: collect stats into the catalog (WAL tag 5; skipped
    /// on both sides if the table does not exist).
    Analyze(u8),
    /// `CREATE INDEX` on `t{table}` (WAL tag 11; skipped if the table does
    /// not exist or the derived name is already taken).
    CreateIndex { table: u8, column: u8 },
    /// `DROP INDEX` (WAL tag 12; skipped if the derived name is unknown).
    DropIndex { table: u8, column: u8 },
    /// Checkpoint: snapshot everything, reset the WAL.
    Full,
}

fn table_name(i: u8) -> String {
    format!("t{i}")
}

/// Index target columns reachable from the oracle schema: `id` is certain
/// (`evx` key layout), `x` uncertain (`cdf` summaries).
fn index_target(column: u8) -> (&'static str, IndexKind) {
    if column.is_multiple_of(2) {
        ("id", IndexKind::Evx)
    } else {
        ("x", IndexKind::Cdf)
    }
}

fn index_name(table: u8, column: u8) -> String {
    let (col, _) = index_target(column);
    format!("ix_t{table}_{col}")
}

fn simple_pdfs(mean: f64) -> [(&'static str, Pdf1); 2] {
    [
        ("x", Pdf1::gaussian(mean, 1.0).unwrap()),
        ("y", Pdf1::discrete(vec![(mean.floor(), 0.5), (mean.floor() + 1.0, 0.5)]).unwrap()),
    ]
}

fn joint_pdf(key: i64, p: f64) -> JointPdf {
    // Mass p < 1: the tuple only probably exists.
    JointPdf::from_points(
        JointDiscrete::from_points(
            2,
            vec![
                (vec![key as f64, key as f64 + 1.0], p * 0.7),
                (vec![key as f64 + 2.0, key as f64 - 1.0], p * 0.3),
            ],
        )
        .unwrap(),
    )
}

/// Applies `op` to the in-memory oracle. Returns `true` iff the same op
/// commits a WAL record on the durable side.
fn apply_oracle(
    tables: &mut HashMap<String, Relation>,
    reg: &mut HistoryRegistry,
    stats: &mut StatsCatalog,
    ix: &mut IndexCatalog,
    op: &Op,
) -> bool {
    match op {
        Op::Create(i) => {
            let name = table_name(*i);
            if tables.contains_key(&name) {
                return false;
            }
            tables.insert(name.clone(), Relation::new(name, oracle_schema()));
            true
        }
        Op::Simple { table, key, mean } => {
            let Some(rel) = tables.get_mut(&table_name(*table)) else { return false };
            let [x, y] = simple_pdfs(*mean);
            rel.insert_simple(reg, &[("id", Value::Int(*key))], &[x, y]).unwrap();
            true
        }
        Op::Joint { table, key, p } => {
            let Some(rel) = tables.get_mut(&table_name(*table)) else { return false };
            rel.insert(
                reg,
                &[("id", Value::Int(*key))],
                vec![(vec!["x", "y"], joint_pdf(*key, *p))],
            )
            .unwrap();
            true
        }
        Op::Analyze(i) => {
            let Some(rel) = tables.get(&table_name(*i)) else { return false };
            stats.insert(analyze_relation(rel).unwrap());
            true
        }
        Op::CreateIndex { table, column } => {
            let name = index_name(*table, *column);
            if !tables.contains_key(&table_name(*table)) || ix.get(&name).is_some() {
                return false;
            }
            let (col, kind) = index_target(*column);
            ix.create(IndexDef { name, table: table_name(*table), column: col.into(), kind })
                .unwrap();
            true
        }
        Op::DropIndex { table, column } => {
            let name = index_name(*table, *column);
            if ix.get(&name).is_none() {
                return false;
            }
            ix.drop_index(&name).unwrap();
            true
        }
        Op::Full => false,
    }
}

/// Applies `op` to the durable side, mirroring the oracle's skip rules.
/// Returns `true` iff the op committed a WAL record.
fn apply_db(db: &SharedDurableDb, op: &Op) -> bool {
    let has_table = |name: &str| db.with_tables(|tables, _| tables.contains_key(name));
    match op {
        Op::Create(i) => {
            let name = table_name(*i);
            if has_table(&name) {
                return false;
            }
            txn_create_table(db, &name, oracle_schema()).unwrap();
            true
        }
        Op::Simple { table, key, mean } => {
            let name = table_name(*table);
            if !has_table(&name) {
                return false;
            }
            let [x, y] = simple_pdfs(*mean);
            txn_insert_simple(db, &name, &[("id", Value::Int(*key))], &[x, y]).unwrap();
            true
        }
        Op::Joint { table, key, p } => {
            let name = table_name(*table);
            if !has_table(&name) {
                return false;
            }
            txn_insert(
                db,
                &name,
                &[("id", Value::Int(*key))],
                vec![(vec!["x", "y"], joint_pdf(*key, *p))],
            )
            .unwrap();
            true
        }
        Op::Analyze(i) => {
            let name = table_name(*i);
            if !has_table(&name) {
                return false;
            }
            db.analyze_table(&name).unwrap();
            true
        }
        Op::CreateIndex { table, column } => {
            let tname = table_name(*table);
            let name = index_name(*table, *column);
            if !has_table(&tname) || db.indexes().lock().get(&name).is_some() {
                return false;
            }
            let (col, kind) = index_target(*column);
            db.create_index(&name, &tname, col, Some(kind)).unwrap();
            true
        }
        Op::DropIndex { table, column } => {
            let name = index_name(*table, *column);
            if db.indexes().lock().get(&name).is_none() {
                return false;
            }
            db.drop_index(&name).unwrap();
            true
        }
        Op::Full => {
            db.checkpoint().unwrap();
            false
        }
    }
}

/// The oracle fingerprint extended with the byte-encoded index-definition
/// catalog: a definition lost (or resurrected) by recovery fails the
/// comparison exactly like lost tuple data.
fn fp_ix(
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    stats: &StatsCatalog,
    ix: &IndexCatalog,
) -> String {
    let mut s = fingerprint(tables, reg, stats);
    s.push_str("|ix:");
    for b in ix.encode() {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Runs `ops` against both sides under `dir`. Returns the oracle
/// fingerprints indexed by *operations committed since the last
/// checkpoint*: `fps[0]` is the state baked into the snapshot,
/// `fps[k]` the state after `k` further committed operations (the WAL).
fn run_workload(dir: &Path, ops: &[Op]) -> Vec<String> {
    let db = open_db(dir);
    let mut tables: HashMap<String, Relation> = HashMap::new();
    let mut reg = HistoryRegistry::new();
    let mut stats = StatsCatalog::new();
    let mut ix = IndexCatalog::new();
    let mut fps = vec![fp_ix(&tables, &reg, &stats, &ix)];
    for op in ops {
        let committed = apply_db(&db, op);
        match op {
            Op::Full => {
                // Checkpoints move the baseline: the WAL restarts empty.
                fps = vec![fp_ix(&tables, &reg, &stats, &ix)];
            }
            _ => {
                assert_eq!(
                    committed,
                    apply_oracle(&mut tables, &mut reg, &mut stats, &mut ix, op),
                    "skip rules agree"
                );
                if committed {
                    fps.push(fp_ix(&tables, &reg, &stats, &ix));
                }
            }
        }
    }
    // Live database and oracle agree before any crash is simulated.
    let (live_ix, live_stats) = (db.indexes(), db.stats_catalog());
    let live = db.with_tables(|t, r| fp_ix(t, r, &live_stats, &live_ix.lock()));
    assert_eq!(live, *fps.last().unwrap(), "live state diverged");
    db.check_invariants().unwrap();
    fps
}

/// Deterministic probe answers over a built index — the observable the
/// recovered-vs-fresh-rebuild comparison runs on. The masks and probe
/// counts fix the tree's keyed entries, payloads, and unkeyed set, so
/// equality here means the recovered definition materializes the same
/// index a from-scratch build does.
fn probe_battery(ix: &BuiltIndex) -> String {
    let mut s = format!("{:?}|len={}|rows={}|pages={}", ix.def, ix.len(), ix.rows, ix.pages());
    match ix.def.kind {
        IndexKind::Evx => {
            for (lo, hi) in
                [(f64::NEG_INFINITY, f64::INFINITY), (-2.0, 3.0), (1.0, 1.0), (50.0, 60.0)]
            {
                s.push_str(&format!("|{:?}", ix.range_mask(lo, hi).unwrap()));
            }
        }
        IndexKind::Cdf => {
            for (lo, p) in [(0.0, 0.5), (-3.0, 0.9), (2.5, 0.2)] {
                let m = ix.threshold_mask(&Interval::new(lo, f64::INFINITY), CmpOp::Gt, p).unwrap();
                s.push_str(&format!("|{m:?}"));
            }
        }
    }
    s
}

/// The matrix itself: crash at every byte of the WAL left under `src` and
/// assert recovery lands exactly on the oracle fingerprint for the
/// surviving committed prefix — twice (idempotence).
fn crash_matrix(src: &Path, fps: &[String], scratch: &Path) {
    let wal = std::fs::read(src.join(WAL_FILE)).unwrap_or_default();
    let snapshot = std::fs::read(src.join(SNAPSHOT_FILE)).ok();
    for cut in 0..=wal.len() {
        stage_crash(scratch, snapshot.as_deref(), &wal[..cut]);
        let k = committed_ops(&wal, cut);
        let rec = recover(scratch);
        let handle = rec.db.indexes();
        assert_eq!(
            fp_ix(&rec.tables, &rec.reg, &rec.stats, &handle.lock()),
            fps[k],
            "recovered state != oracle after {k} ops (cut at byte {cut}/{})",
            wal.len()
        );
        // Every surviving definition must answer exactly like a fresh
        // from-scratch build over the recovered relation — the tree is
        // never persisted, so this is the rebuild path recovery relies on.
        let defs: Vec<IndexDef> = handle.lock().defs().cloned().collect();
        for def in &defs {
            let rel = &rec.tables[&def.table];
            let recovered = handle.lock().ensure_built(&def.name, rel).unwrap();
            let fresh = BuiltIndex::build(def, rel, recovered.epoch).unwrap();
            assert_eq!(
                probe_battery(&recovered),
                probe_battery(&fresh),
                "recovered index '{}' != fresh rebuild (cut at byte {cut})",
                def.name
            );
        }
        rec.db.check_invariants().unwrap_or_else(|e| panic!("invariants at cut {cut}: {e}"));
        drop(rec);
        let rec = recover(scratch);
        let handle = rec.db.indexes();
        assert_eq!(
            fp_ix(&rec.tables, &rec.reg, &rec.stats, &handle.lock()),
            fps[k],
            "second recovery diverged (cut at byte {cut})"
        );
        assert_eq!(rec.db.recovery().wal_bytes_truncated, 0, "second open must find a clean log");
    }
    std::fs::remove_dir_all(scratch).ok();
}

/// End-to-end: run the workload, then grind the matrix.
fn run_oracle(name: &str, ops: &[Op]) {
    let src = scratch_dir(&format!("recovery_oracle-{name}-src"));
    let scratch = scratch_dir(&format!("recovery_oracle-{name}-cut"));
    let fps = run_workload(&src, ops);
    crash_matrix(&src, &fps, &scratch);
    std::fs::remove_dir_all(&src).ok();
}

#[test]
fn oracle_wal_only_matrix() {
    run_oracle(
        "wal_only",
        &[
            Op::Create(0),
            Op::Simple { table: 0, key: 1, mean: 0.5 },
            Op::Joint { table: 0, key: 2, p: 0.8 },
            Op::Create(1),
            Op::Simple { table: 1, key: 3, mean: -2.0 },
        ],
    );
}

#[test]
fn oracle_full_checkpoint_matrix() {
    run_oracle(
        "full_ckpt",
        &[
            Op::Create(0),
            Op::Simple { table: 0, key: 1, mean: 1.0 },
            Op::Joint { table: 0, key: 2, p: 0.6 },
            Op::Full,
            Op::Simple { table: 0, key: 3, mean: 2.0 },
            Op::Create(1),
            Op::Joint { table: 1, key: 4, p: 0.3 },
        ],
    );
}

#[test]
fn oracle_analyze_survives_every_cut() {
    // ANALYZE → crash → recover must yield a bitwise-identical stats
    // catalog at every WAL cut: stats committed via tag-5 frames replay
    // like data, re-ANALYZE after more inserts overwrites, and a full
    // checkpoint bakes the catalog into the snapshot.
    run_oracle(
        "analyze",
        &[
            Op::Create(0),
            Op::Simple { table: 0, key: 1, mean: 0.5 },
            Op::Joint { table: 0, key: 2, p: 0.8 },
            Op::Analyze(0),
            Op::Simple { table: 0, key: 3, mean: 2.5 },
            Op::Analyze(0),
            Op::Full,
            Op::Create(1),
            Op::Analyze(1),
            Op::Simple { table: 1, key: 4, mean: -1.0 },
        ],
    );
}

#[test]
fn oracle_index_defs_survive_every_cut() {
    // CREATE INDEX / DROP INDEX interleaved with inserts and checkpoints:
    // at every WAL cut the surviving definitions must match the oracle
    // (tag-11/12 frames replay like data, defs bake into snapshots, a
    // checkpoint after a drop leaves the definition out), and every
    // surviving definition must rebuild into the same tree a fresh build
    // produces.
    run_oracle(
        "index_defs",
        &[
            Op::Create(0),
            Op::Simple { table: 0, key: 1, mean: 0.5 },
            Op::CreateIndex { table: 0, column: 1 }, // cdf on x
            Op::Joint { table: 0, key: 2, p: 0.8 },
            Op::CreateIndex { table: 0, column: 0 }, // evx on id
            Op::CreateIndex { table: 0, column: 1 }, // duplicate: skipped on both sides
            Op::Full,
            Op::Simple { table: 0, key: 3, mean: 2.0 },
            Op::DropIndex { table: 0, column: 0 },
            Op::Create(1),
            Op::CreateIndex { table: 1, column: 1 },
            Op::Full,
            Op::Simple { table: 1, key: 4, mean: -1.0 },
            Op::DropIndex { table: 1, column: 1 },
            Op::CreateIndex { table: 1, column: 1 }, // recreate after drop
        ],
    );
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..2).prop_map(|i| Op::Create(i as u8)),
        (0u32..2, 0i64..100, -5.0..5.0f64).prop_map(|(table, key, mean)| Op::Simple {
            table: table as u8,
            key,
            mean
        }),
        (0u32..2, 0i64..100, 0.05..0.95f64).prop_map(|(table, key, p)| Op::Joint {
            table: table as u8,
            key,
            p
        }),
        (0u32..2).prop_map(|i| Op::Analyze(i as u8)),
        (0u32..2, 0u32..2).prop_map(|(table, column)| Op::CreateIndex {
            table: table as u8,
            column: column as u8
        }),
        (0u32..2, 0u32..2)
            .prop_map(|(table, column)| Op::DropIndex { table: table as u8, column: column as u8 }),
        // Two checkpoint arms keep checkpoints at a quarter of the random
        // ops, which bounds the WAL (and so the cuts) each matrix grinds.
        Just(Op::Full),
        Just(Op::Full),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn oracle_random_workloads_survive_every_cut(tail in prop::collection::vec(arb_op(), 3..10)) {
        // Guarantee at least one table and one committed record so every
        // case exercises the matrix, then append the random tail.
        let mut ops = vec![Op::Create(0), Op::Simple { table: 0, key: -1, mean: 0.0 }];
        ops.extend(tail);
        run_oracle("random", &ops);
    }
}

// ---------------------------------------------------------------------------
// Multi-op transactions: the same byte-level crash matrix, but with WAL
// records grouped into one frame per transaction. Recovery must apply a
// transaction *all or none* — a cut anywhere inside the group rolls the
// whole transaction back.
// ---------------------------------------------------------------------------

/// One DML statement inside (or outside) a transaction. Scripts keep keys
/// unique per table so each step maps to exactly one WAL data record —
/// the unit `committed_ops` counts.
#[derive(Debug, Clone)]
enum TxnStep {
    /// Create table `t{0}`.
    Create(u8),
    /// Insert one row with two independent per-column pdfs.
    Insert { table: u8, key: i64, mean: f64 },
    /// Delete the (single) row with `id == key`.
    Delete { table: u8, key: i64 },
    /// Replace the (single) `id == key` row's `x` node with `certain(val)`.
    Update { table: u8, key: i64, val: f64 },
}

/// One entry of a transactional workload script.
#[derive(Debug, Clone)]
enum Step {
    /// A transaction holding `steps`, committed or rolled back atomically.
    Txn { steps: Vec<TxnStep>, commit: bool },
    /// Full checkpoint: snapshot everything, reset the WAL.
    Checkpoint,
}

fn key_is(key: i64) -> impl Fn(&ProbTuple) -> bool {
    move |t: &ProbTuple| t.certain[0] == Value::Int(key)
}

fn stage_txn_step(txn: &mut Txn, step: &TxnStep) {
    match step {
        TxnStep::Create(i) => txn.create_table(&table_name(*i), oracle_schema()).unwrap(),
        TxnStep::Insert { table, key, mean } => {
            let [x, y] = simple_pdfs(*mean);
            txn.insert_simple(&table_name(*table), &[("id", Value::Int(*key))], &[x, y]).unwrap();
        }
        TxnStep::Delete { table, key } => {
            let n = txn.delete_where(&table_name(*table), key_is(*key)).unwrap();
            assert_eq!(n, 1, "script keys are unique: delete hits one row");
        }
        TxnStep::Update { table, key, val } => {
            let v = *val;
            let n = txn
                .update_where(&table_name(*table), key_is(*key), |t, reg| {
                    let attr = t.nodes[0].dims[0].column.expect("x is visible");
                    let joint = JointPdf::from_pdf1(Pdf1::certain(v));
                    let id = reg.register(vec![attr], joint.clone());
                    t.nodes[0] = PdfNode::base(id, &[attr], joint, [id].into_iter().collect());
                    Ok(())
                })
                .unwrap();
            assert_eq!(n, 1, "script keys are unique: update hits one row");
        }
    }
}

/// Oracle-side mirror of one step, with the exact reference bookkeeping
/// WAL replay performs for the corresponding record.
fn oracle_txn_step(
    tables: &mut HashMap<String, Relation>,
    reg: &mut HistoryRegistry,
    step: &TxnStep,
) {
    match step {
        TxnStep::Create(i) => {
            let name = table_name(*i);
            tables.insert(name.clone(), Relation::new(name, oracle_schema()));
        }
        TxnStep::Insert { table, key, mean } => {
            let [x, y] = simple_pdfs(*mean);
            tables
                .get_mut(&table_name(*table))
                .unwrap()
                .insert_simple(reg, &[("id", Value::Int(*key))], &[x, y])
                .unwrap();
        }
        TxnStep::Delete { table, key } => {
            let n = tables.get_mut(&table_name(*table)).unwrap().delete_where(reg, key_is(*key));
            assert_eq!(n, 1, "oracle delete hits one row");
        }
        TxnStep::Update { table, key, val } => {
            let rel = tables.get_mut(&table_name(*table)).unwrap();
            let sel = key_is(*key);
            let idx = rel.tuples.iter().position(sel).expect("oracle update finds its row");
            let mut new_t = rel.tuples[idx].clone();
            let attr = new_t.nodes[0].dims[0].column.expect("x is visible");
            let joint = JointPdf::from_pdf1(Pdf1::certain(*val));
            let id = reg.register(vec![attr], joint.clone());
            new_t.nodes[0] = PdfNode::base(id, &[attr], joint, [id].into_iter().collect());
            let old_t = std::mem::replace(&mut rel.tuples_mut()[idx], new_t);
            let new_nodes = rel.tuples[idx].nodes.clone();
            // Position-wise node diff, new refs before old releases — the
            // same bookkeeping `apply_record` runs for an update record.
            for i in 0..old_t.nodes.len().max(new_nodes.len()) {
                if old_t.nodes.get(i) == new_nodes.get(i) {
                    continue;
                }
                if let Some(nw) = new_nodes.get(i) {
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
    }
}

/// Runs a transactional script against a shared durable handle and the
/// oracle. Returns fingerprints indexed by committed-records-since-last-
/// checkpoint, matching `committed_ops`: a committed transaction
/// contributes one entry per step (all indexed past its group frame), a
/// rolled-back one contributes nothing.
fn run_txn_workload(dir: &Path, script: &[Step]) -> Vec<String> {
    let db = open_db(dir);
    let mut tables: HashMap<String, Relation> = HashMap::new();
    let mut reg = HistoryRegistry::new();
    let stats = StatsCatalog::new();
    let ix = IndexCatalog::new(); // txn scripts define no indexes
    let mut fps = vec![fp_ix(&tables, &reg, &stats, &ix)];
    for step in script {
        match step {
            Step::Checkpoint => {
                db.checkpoint().unwrap();
                fps = vec![fp_ix(&tables, &reg, &stats, &ix)];
            }
            Step::Txn { steps, commit } => {
                let mut txn = Txn::begin(&db);
                for st in steps {
                    stage_txn_step(&mut txn, st);
                }
                if *commit {
                    txn.commit().unwrap();
                    for st in steps {
                        oracle_txn_step(&mut tables, &mut reg, st);
                        fps.push(fp_ix(&tables, &reg, &stats, &ix));
                    }
                } else {
                    let wal_before = db.wal_len();
                    txn.rollback();
                    assert_eq!(db.wal_len(), wal_before, "rollback leaves no WAL trace");
                }
            }
        }
    }
    let live = db.with_tables(|t, r| fp_ix(t, r, &stats, &ix));
    assert_eq!(live, *fps.last().unwrap(), "live state diverged from the oracle");
    db.check_invariants().unwrap();
    fps
}

fn run_txn_oracle(name: &str, script: &[Step]) {
    let src = scratch_dir(&format!("recovery_oracle-{name}-src"));
    let scratch = scratch_dir(&format!("recovery_oracle-{name}-cut"));
    let fps = run_txn_workload(&src, script);
    crash_matrix(&src, &fps, &scratch);
    std::fs::remove_dir_all(&src).ok();
}

#[test]
fn oracle_txn_groups_recover_all_or_none() {
    run_txn_oracle(
        "txn_groups",
        &[
            Step::Txn {
                steps: vec![
                    TxnStep::Create(0),
                    TxnStep::Insert { table: 0, key: 1, mean: 0.5 },
                    TxnStep::Insert { table: 0, key: 2, mean: 1.5 },
                ],
                commit: true,
            },
            // A single-statement transaction, as autocommit SQL runs one.
            Step::Txn {
                steps: vec![TxnStep::Insert { table: 0, key: 3, mean: -2.0 }],
                commit: true,
            },
            Step::Txn {
                steps: vec![
                    TxnStep::Update { table: 0, key: 1, val: 5.0 },
                    TxnStep::Delete { table: 0, key: 2 },
                    TxnStep::Insert { table: 0, key: 4, mean: 2.0 },
                ],
                commit: true,
            },
            // A rolled-back transaction must be invisible at every cut.
            Step::Txn {
                steps: vec![
                    TxnStep::Insert { table: 0, key: 9, mean: 9.0 },
                    TxnStep::Delete { table: 0, key: 3 },
                ],
                commit: false,
            },
            Step::Txn {
                steps: vec![
                    TxnStep::Create(1),
                    TxnStep::Insert { table: 1, key: 5, mean: 1.0 },
                    TxnStep::Delete { table: 0, key: 3 },
                ],
                commit: true,
            },
            Step::Txn {
                steps: vec![TxnStep::Insert { table: 1, key: 6, mean: -1.0 }],
                commit: true,
            },
        ],
    );
}

#[test]
fn oracle_txn_after_checkpoint_recovers() {
    // A checkpoint mid-script: later transaction groups replay over the
    // snapshot; earlier ones are baked in.
    run_txn_oracle(
        "txn_ckpt",
        &[
            Step::Txn {
                steps: vec![
                    TxnStep::Create(0),
                    TxnStep::Insert { table: 0, key: 1, mean: 0.0 },
                    TxnStep::Insert { table: 0, key: 2, mean: 1.0 },
                ],
                commit: true,
            },
            Step::Checkpoint,
            Step::Txn {
                steps: vec![
                    TxnStep::Update { table: 0, key: 2, val: 7.5 },
                    TxnStep::Insert { table: 0, key: 3, mean: 3.0 },
                ],
                commit: true,
            },
            Step::Txn { steps: vec![TxnStep::Delete { table: 0, key: 1 }], commit: true },
        ],
    );
}

#[test]
fn oracle_conflicted_txn_leaves_no_wal_trace() {
    // First-committer-wins: the losing transaction's failed commit must
    // not write a single WAL byte, so every crash cut recovers to a state
    // that never contains its writes.
    let src = scratch_dir("recovery_oracle-txn_conflict-src");
    let scratch = scratch_dir("recovery_oracle-txn_conflict-cut");
    let db = open_db(&src);
    let mut tables: HashMap<String, Relation> = HashMap::new();
    let mut reg = HistoryRegistry::new();
    let stats = StatsCatalog::new();
    let ix = IndexCatalog::new();
    let mut fps = vec![fp_ix(&tables, &reg, &stats, &ix)];
    let setup = [
        TxnStep::Create(0),
        TxnStep::Insert { table: 0, key: 1, mean: 0.5 },
        TxnStep::Insert { table: 0, key: 2, mean: 1.5 },
    ];
    let mut t0 = Txn::begin(&db);
    for st in &setup {
        stage_txn_step(&mut t0, st);
    }
    t0.commit().unwrap();
    for st in &setup {
        oracle_txn_step(&mut tables, &mut reg, st);
        fps.push(fp_ix(&tables, &reg, &stats, &ix));
    }

    // Two overlapping transactions race to delete the same row.
    let mut loser = Txn::begin(&db);
    let mut winner = Txn::begin(&db);
    stage_txn_step(&mut winner, &TxnStep::Delete { table: 0, key: 1 });
    winner.commit().unwrap();
    oracle_txn_step(&mut tables, &mut reg, &TxnStep::Delete { table: 0, key: 1 });
    fps.push(fp_ix(&tables, &reg, &stats, &ix));

    stage_txn_step(&mut loser, &TxnStep::Delete { table: 0, key: 1 });
    let wal_before = db.wal_len();
    let err = loser.commit().expect_err("second deleter must conflict");
    assert!(err.is_retryable(), "conflicts are retryable: {err}");
    assert_eq!(db.wal_len(), wal_before, "conflicted commit leaves no WAL trace");
    let live = db.with_tables(|t, r| fp_ix(t, r, &stats, &ix));
    assert_eq!(live, *fps.last().unwrap(), "conflicted commit mutated live state");
    db.check_invariants().unwrap();
    drop(db);
    crash_matrix(&src, &fps, &scratch);
    std::fs::remove_dir_all(&src).ok();
}

/// Seeded entry point for CI: `scripts/check.sh` runs this with three
/// pinned `ORION_ORACLE_SEED` values; unset, it uses a fixed default.
#[test]
fn oracle_env_seeded_workload() {
    let seed: u64 = std::env::var("ORION_ORACLE_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(0xA11CE);
    let mut rng = TestRng::deterministic(&format!("orion-oracle-{seed}"));
    let strat = prop::collection::vec(arb_op(), 6..14);
    // The fixed preamble guarantees a table, a data record, and a tag-11
    // index record in every seeded run.
    let mut ops = vec![
        Op::Create(0),
        Op::Simple { table: 0, key: -1, mean: 0.0 },
        Op::CreateIndex { table: 0, column: 1 },
    ];
    ops.extend(strat.generate(&mut rng));
    run_oracle(&format!("env_seed_{seed}"), &ops);
}

//! Persistence under load: databases survive save/load with their
//! histories intact, and queries over reloaded data remain PWS-consistent.

use orion_core::durable::WAL_FILE;
use orion_core::persist::{load_database, save_database};
use orion_core::plan::Plan;
use orion_core::prelude::*;
use orion_core::pws::{
    conformance_report, distribution_distance, pws_row_distribution_via_ancestors,
};
use orion_pdf::prelude::*;
use orion_storage::MAX_PAGE_RECORD;
use std::collections::HashMap;
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    orion_tests::scratch_dir("persist_pipeline").join(name)
}

#[test]
fn reloaded_database_stays_pws_consistent() {
    let (tables, reg) = orion_tests::table2();
    let path = temp("pws.db");
    save_database(&path, &tables, &reg).unwrap();
    let (loaded, lreg) = load_database(&path).unwrap();
    let plan = Plan::scan("T").select(Predicate::cmp_cols("a", CmpOp::Lt, "b"));
    let (truth, engine) =
        conformance_report(&plan, &loaded, &lreg, &ExecOptions::default()).unwrap();
    assert!(distribution_distance(&truth, &engine) < 1e-9);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn mutex_groups_survive_save_load() {
    // Cross-tuple correlation (shared phantom ancestor) must survive the
    // round trip: the ancestor-level PWS over the *loaded* registry still
    // sees the mutual exclusion.
    let mut reg = HistoryRegistry::new();
    let schema =
        ProbSchema::new(vec![("id", ColumnType::Int, false), ("a", ColumnType::Int, true)], vec![])
            .unwrap();
    let mut rel = Relation::new("T", schema);
    rel.insert_mutex_group(
        &mut reg,
        vec![
            (vec![("id", Value::Int(1))], vec![("a", Pdf1::certain(10.0))]),
            (vec![("id", Value::Int(2))], vec![("a", Pdf1::certain(20.0))]),
        ],
        &[0.4, 0.4],
    )
    .unwrap();
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), rel);
    let path = temp("mutex.db");
    save_database(&path, &tables, &reg).unwrap();
    let (loaded, lreg) = load_database(&path).unwrap();

    let plan = Plan::scan("T").project(&["id"]);
    let dist = pws_row_distribution_via_ancestors(&plan, &loaded, &lreg).unwrap();
    let key = |i: i64| vec![orion_core::pws::CanonValue::Int(i)];
    assert!((dist[&key(1)] - 0.4).abs() < 1e-12);
    assert!((dist[&key(2)] - 0.4).abs() < 1e-12);
    // Joint presence of both alternatives is impossible: check via the
    // self-pair join of projections.
    let both = Plan::scan("T").project(&["id"]).join_on(Plan::scan("T").project(&["id"]), None);
    let dist = pws_row_distribution_via_ancestors(&both, &loaded, &lreg).unwrap();
    let pair = |l: i64, r: i64| {
        vec![orion_core::pws::CanonValue::Int(l), orion_core::pws::CanonValue::Int(r)]
    };
    assert!(!dist.contains_key(&pair(1, 2)), "mutually exclusive after reload");
    assert!((dist[&pair(1, 1)] - 0.4).abs() < 1e-12);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn save_load_save_is_stable() {
    // Double round trip produces identical bytes-level content
    // (tables, tuples, registry sizes).
    let (tables, reg) = orion_tests::table2();
    let p1 = temp("stable1.db");
    let p2 = temp("stable2.db");
    save_database(&p1, &tables, &reg).unwrap();
    let (t1, r1) = load_database(&p1).unwrap();
    save_database(&p2, &t1, &r1).unwrap();
    let (t2, r2) = load_database(&p2).unwrap();
    assert_eq!(t1.len(), t2.len());
    for (name, rel) in &t1 {
        assert_eq!(rel.tuples, t2[name].tuples, "table {name}");
        assert_eq!(rel.schema, t2[name].schema);
    }
    assert_eq!(r1.len(), r2.len());
    std::fs::remove_dir_all(p1.parent().unwrap()).ok();
    std::fs::remove_dir_all(p2.parent().unwrap()).ok();
}

#[test]
fn atomic_save_leaves_no_tmp_and_survives_overwrite() {
    let (tables, reg) = orion_tests::table2();
    let path = temp("atomic.db");
    save_database(&path, &tables, &reg).unwrap();
    save_database(&path, &tables, &reg).unwrap();
    let mut tmp = path.clone().into_os_string();
    tmp.push(".tmp");
    assert!(!std::path::Path::new(&tmp).exists(), "temp file must be renamed away");
    let (loaded, _) = load_database(&path).unwrap();
    assert_eq!(loaded.len(), tables.len());
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

fn readings_schema() -> ProbSchema {
    ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
        .unwrap()
}

/// Creates `readings` and inserts ids `0..n`, each insert its own
/// transaction (as autocommit SQL runs it).
fn fill_readings(db: &SharedDurableDb, n: i64, mean: impl Fn(i64) -> f64) {
    orion_tests::txn_create_table(db, "readings", readings_schema()).unwrap();
    for i in 0..n {
        orion_tests::txn_insert_simple(
            db,
            "readings",
            &[("id", Value::Int(i))],
            &[("v", Pdf1::gaussian(mean(i), 1.0).unwrap())],
        )
        .unwrap();
    }
}

fn durable_dir(name: &str) -> PathBuf {
    orion_tests::scratch_dir(&format!("persist_pipeline-{name}"))
}

#[test]
fn durable_db_recovers_committed_inserts_after_wal_corruption() {
    let dir = durable_dir("wal_garbage");
    fill_readings(&orion_tests::open_db(&dir), 4, |i| i as f64);
    // Crash mid-append: garbage lands after the committed records.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new().append(true).open(dir.join(WAL_FILE)).unwrap();
    f.write_all(&[0xEE; 23]).unwrap();
    drop(f);
    let rec = orion_tests::recover(&dir);
    assert_eq!(rec.db.recovery().wal_bytes_truncated, 23);
    assert_eq!(rec.rows("readings"), 4, "every committed insert survives");
    rec.db.check_invariants().unwrap();
    // Queries over the recovered data still work.
    let opts = ExecOptions::default();
    let pred = Predicate::cmp("v", CmpOp::Gt, 1.5);
    let rel = rec.tables["readings"].clone();
    let sel = orion_core::select::select(&rel, &pred, &rec.reg, &opts).unwrap();
    assert!(!sel.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_truncates_wal_and_snapshot_takes_over() {
    let dir = durable_dir("checkpoint");
    {
        let db = orion_tests::open_db(&dir);
        fill_readings(&db, 3, |_| 0.0);
        assert!(db.wal_len() > 0);
        db.checkpoint().unwrap();
        assert_eq!(db.wal_len(), 0, "checkpoint empties the WAL");
    }
    let rec = orion_tests::recover(&dir);
    assert!(rec.db.recovery().snapshot_loaded);
    assert_eq!(rec.db.recovery().wal_records_replayed, 0);
    assert_eq!(rec.rows("readings"), 3);
    rec.db.check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyzed_stats_wider_than_a_page_survive_checkpoint_and_reopen() {
    // ANALYZE over >= 256 sampled uncertain tuples writes a stats record
    // larger than one heap page; the checkpoint must still write it.
    let dir = durable_dir("wide_stats");
    let stats = {
        let db = orion_tests::open_db(&dir);
        fill_readings(&db, 300, |i| i as f64);
        let ts = db.analyze_table("readings").unwrap();
        assert!(ts.encode().len() > MAX_PAGE_RECORD, "the stats record outgrows a page");
        db.checkpoint().unwrap();
        db.stats_catalog()
    };
    let rec = orion_tests::recover(&dir);
    assert!(rec.db.recovery().snapshot_loaded);
    assert_eq!(rec.db.recovery().wal_records_replayed, 0, "the stats live in the snapshot");
    assert_eq!(rec.stats.encode(), stats.encode(), "bitwise-equal stats catalog");
    assert_eq!(rec.rows("readings"), 300);
    rec.db.check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wide_discrete_tuple_survives_checkpoint_and_reopen() {
    let dir = durable_dir("wide_tuple");
    let wide = Pdf1::discrete((0..1024).map(|i| (i as f64, 1.0 / 1024.0)).collect()).unwrap();
    let (tables, reg) = {
        let db = orion_tests::open_db(&dir);
        orion_tests::txn_create_table(&db, "readings", readings_schema()).unwrap();
        orion_tests::txn_insert_simple(&db, "readings", &[("id", Value::Int(1))], &[("v", wide)])
            .unwrap();
        db.checkpoint().unwrap();
        db.with_tables(|t, r| (t.clone(), r.clone()))
    };
    let rec = orion_tests::recover(&dir);
    assert!(rec.db.recovery().snapshot_loaded);
    assert_eq!(rec.tables["readings"].tuples, tables["readings"].tuples);
    assert_eq!(rec.reg.len(), reg.len());
    rec.db.check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn derived_relations_persist_with_floors() {
    // Save a database containing a *derived* (floored) relation; the floors
    // and partial masses must survive.
    let (tables, reg) = orion_tests::table2();
    let sel = orion_core::select::select(
        &tables["T"],
        &Predicate::cmp("a", CmpOp::Gt, 0i64),
        &reg,
        &ExecOptions::default(),
    )
    .unwrap();
    let mut all = tables.clone();
    let mut derived = sel;
    derived.name = "V".to_string();
    all.insert("V".to_string(), derived);
    let path = temp("derived.db");
    save_database(&path, &all, &reg).unwrap();
    let (loaded, _) = load_database(&path).unwrap();
    let v = &loaded["V"];
    // Tuple 1's a-node lost its a=0 world: mass 0.9.
    let a = v.schema.column("a").unwrap().id;
    let m = v.tuples[0].node_for(a).unwrap().marginal(a).unwrap();
    assert!((m.mass() - 0.9).abs() < 1e-12);
    assert_eq!(m.density(0.0), 0.0);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

//! Crash matrix (`--features failpoints`): simulate a kill at every
//! injected fault point and assert the database recovers to a consistent
//! committed prefix.
//!
//! Two matrices run here:
//!
//! * **WAL matrix** — a durable database whose inserts each commit as a
//!   single-statement transaction is killed at every byte offset of its
//!   write-ahead log; recovery must yield exactly the operations whose
//!   commit frames fit in the surviving prefix, with all structural
//!   invariants intact and an idempotent second recovery.
//! * **Storage matrix** — a heap-file workload runs over a
//!   [`FaultyStore`] that kills the process at the Nth write (clean
//!   failure or torn page); reopening the file must either read a clean
//!   prefix of records or flag the torn page through its CRC32 seal.
#![cfg(feature = "failpoints")]

use orion_core::durable::{SharedDurableDb, SNAPSHOT_FILE, WAL_FILE};
use orion_core::prelude::*;
use orion_pdf::prelude::*;
use orion_storage::{DeltaFile, FaultPlan, FaultyStore, FileStore, HeapFile, PAGE_SIZE};
use orion_tests::{committed_ops, open_db, recover, txn_create_table, txn_insert_simple};
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("orion_crash_matrix").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sensor_schema() -> ProbSchema {
    ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
        .unwrap()
}

fn create_readings(db: &SharedDurableDb) {
    txn_create_table(db, "readings", sensor_schema()).unwrap();
}

/// One single-statement insert transaction per id in `ids`.
fn insert_ids(db: &SharedDurableDb, ids: std::ops::Range<i64>) {
    for i in ids {
        txn_insert_simple(
            db,
            "readings",
            &[("id", Value::Int(i))],
            &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
        )
        .unwrap();
    }
}

/// Builds a WAL-only database with `n` committed inserts and returns the
/// raw WAL bytes.
fn build_wal_db(dir: &Path, n: i64) -> Vec<u8> {
    let db = open_db(dir);
    create_readings(&db);
    insert_ids(&db, 0..n);
    drop(db);
    std::fs::read(dir.join(WAL_FILE)).unwrap()
}

#[test]
fn wal_crash_matrix_recovers_committed_prefix_at_every_cut() {
    let src = temp_dir("wal_matrix_src");
    let wal = build_wal_db(&src, 4);
    assert!(!wal.is_empty());
    let scratch = temp_dir("wal_matrix_cut");
    // Kill at every byte offset of the log.
    for cut in 0..=wal.len() {
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join(WAL_FILE), &wal[..cut]).unwrap();
        // The first committed operation is the table's creation.
        let expect = committed_ops(&wal, cut).saturating_sub(1);
        let rec = recover(&scratch);
        assert_eq!(rec.rows("readings"), expect, "cut at byte {cut}");
        rec.db.check_invariants().unwrap_or_else(|e| panic!("invariants at cut {cut}: {e}"));
        assert_eq!(rec.db.recovery().wal_bytes_truncated, (cut - rec.db.wal_len() as usize) as u64);
        drop(rec);
        // Recovery is idempotent: the second open finds a clean log.
        let rec = recover(&scratch);
        assert_eq!(rec.db.recovery().wal_bytes_truncated, 0, "second open at cut {cut}");
        assert_eq!(rec.rows("readings"), expect);
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn post_checkpoint_wal_crash_matrix_never_replays_into_duplicates() {
    // Like the WAL matrix above, but over a log that follows a checkpoint:
    // the first frame is the epoch stamp, and recovery must yield the
    // checkpointed tuples plus exactly the post-checkpoint commits that
    // fit in the surviving prefix — never a duplicate.
    let src = temp_dir("ckpt_matrix_src");
    {
        let db = open_db(&src);
        create_readings(&db);
        insert_ids(&db, 0..2);
        db.checkpoint().unwrap();
        insert_ids(&db, 2..5);
    }
    let snap = std::fs::read(src.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(src.join(WAL_FILE)).unwrap();
    assert!(!wal.is_empty());
    let scratch = temp_dir("ckpt_matrix_cut");
    for cut in 0..=wal.len() {
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join(SNAPSHOT_FILE), &snap).unwrap();
        std::fs::write(scratch.join(WAL_FILE), &wal[..cut]).unwrap();
        let expect = 2 + committed_ops(&wal, cut);
        let rec = recover(&scratch);
        assert!(rec.db.recovery().snapshot_loaded);
        assert_eq!(rec.rows("readings"), expect, "cut at byte {cut}");
        rec.db.check_invariants().unwrap_or_else(|e| panic!("invariants at cut {cut}: {e}"));
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn checkpoint_then_crash_preserves_checkpointed_state() {
    let dir = temp_dir("ckpt_crash");
    {
        let db = open_db(&dir);
        create_readings(&db);
        insert_ids(&db, 0..3);
        db.checkpoint().unwrap();
        insert_ids(&db, 99..100);
    }
    // Crash leaving a torn post-checkpoint append.
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() / 2]).unwrap();
    let rec = recover(&dir);
    assert!(rec.db.recovery().snapshot_loaded);
    assert!(rec.rows("readings") >= 3, "checkpointed tuples survive");
    rec.db.check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leftover_tmp_snapshot_is_ignored_and_replaced() {
    let dir = temp_dir("tmp_snapshot");
    // A crash mid-save leaves a half-written temp file behind.
    std::fs::write(dir.join("snapshot.db.tmp"), b"half-written junk").unwrap();
    let db = open_db(&dir);
    create_readings(&db);
    insert_ids(&db, 1..2);
    db.checkpoint().unwrap();
    assert!(!dir.join("snapshot.db.tmp").exists(), "checkpoint renames the tmp away");
    drop(db);
    let rec = recover(&dir);
    assert!(rec.db.recovery().snapshot_loaded);
    assert_eq!(rec.rows("readings"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_wal_append_rolls_back_the_insert() {
    // A WAL append failure must leave neither an in-memory tuple that
    // recovery would never rebuild, nor registry garbage: the insert rolls
    // back wholesale and a retry commits exactly once.
    let dir = temp_dir("append_rollback");
    let db = open_db(&dir);
    create_readings(&db);
    let insert = |db: &SharedDurableDb, i: i64| {
        txn_insert_simple(
            db,
            "readings",
            &[("id", Value::Int(i))],
            &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
        )
    };
    insert(&db, 0).unwrap();
    let committed_len = db.wal_len();
    let bases_before = db.with_tables(|_, reg| reg.len());
    let state = |db: &SharedDurableDb| db.with_tables(|t, reg| (t["readings"].len(), reg.len()));
    // Fail each of the four records an insert transaction commits: begin
    // marker, base pdf, tuple, commit marker.
    for nth in 0..4 {
        db.inject_wal_append_failure(nth);
        assert!(insert(&db, 99).is_err(), "injected failure at append {nth}");
        assert_eq!(state(&db), (1, bases_before), "nothing applied (append {nth})");
        assert_eq!(db.wal_len(), committed_len, "wal rolled back (append {nth})");
        db.check_invariants().unwrap();
    }
    // Same for a sync failure: the commit point was never reached.
    db.inject_wal_sync_failure();
    assert!(insert(&db, 99).is_err());
    assert_eq!(state(&db), (1, bases_before));
    assert_eq!(db.wal_len(), committed_len);
    db.check_invariants().unwrap();
    // A retry after the fault clears commits normally, exactly once.
    insert(&db, 1).unwrap();
    drop(db);
    let rec = recover(&dir);
    assert_eq!(rec.rows("readings"), 2, "recovery sees only committed inserts");
    rec.db.check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_create_table_leaves_no_phantom_table() {
    let dir = temp_dir("schema_rollback");
    let db = open_db(&dir);
    db.inject_wal_append_failure(0);
    assert!(txn_create_table(&db, "readings", sensor_schema()).is_err());
    assert!(db.with_tables(|t, _| t.is_empty()), "table not created in memory");
    assert_eq!(db.wal_len(), 0, "wal rolled back");
    // Retry succeeds and survives recovery.
    create_readings(&db);
    drop(db);
    let rec = recover(&dir);
    assert!(rec.tables.contains_key("readings"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds the canonical incremental-checkpoint crash scenario:
/// `base` tuples → full checkpoint → `tail` tuples riding the WAL.
/// Returns the directory; the caller snapshots its files before poking.
fn build_incremental_scenario(name: &str, base: i64, tail: i64) -> PathBuf {
    let dir = temp_dir(name);
    let db = open_db(&dir);
    create_readings(&db);
    insert_ids(&db, 0..base);
    db.checkpoint().unwrap();
    insert_ids(&db, base..base + tail);
    drop(db);
    dir
}

#[test]
fn incremental_delta_write_crash_matrix_keeps_pre_checkpoint_state() {
    // Kill at every byte of the delta *temp-file* write: the crash window
    // before the rename. Recovery must ignore the torn `.tmp` and land on
    // the full pre-checkpoint state (old chain + old WAL), never a mix.
    let src = build_incremental_scenario("incr_write_matrix_src", 2, 3);
    let snap = std::fs::read(src.join(SNAPSHOT_FILE)).unwrap();
    let wal = std::fs::read(src.join(WAL_FILE)).unwrap();
    // Produce the delta bytes the checkpoint would have written.
    open_db(&src).checkpoint_incremental().unwrap();
    let (delta_epoch, delta_path) = DeltaFile::list(&src).unwrap().pop().unwrap();
    let delta = std::fs::read(&delta_path).unwrap();
    assert_eq!(delta_epoch, 2);
    let scratch = temp_dir("incr_write_matrix_cut");
    for cut in 0..=delta.len() {
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join(SNAPSHOT_FILE), &snap).unwrap();
        std::fs::write(scratch.join(WAL_FILE), &wal).unwrap();
        std::fs::write(scratch.join(format!("{}.tmp", DeltaFile::file_name(2))), &delta[..cut])
            .unwrap();
        let rec = recover(&scratch);
        assert_eq!(rec.db.epoch(), 1, "tmp delta must not advance the epoch (cut {cut})");
        assert_eq!(rec.db.recovery().deltas_folded, 0, "tmp delta folded at cut {cut}");
        assert_eq!(rec.rows("readings"), 5, "cut {cut}");
        rec.db.check_invariants().unwrap_or_else(|e| panic!("invariants at cut {cut}: {e}"));
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn incremental_wal_reset_crash_matrix_never_mixes_epochs() {
    // The crash window *after* the delta rename but before (or during) the
    // WAL reset: the renamed delta already holds every WAL commit, so any
    // surviving prefix of the stale WAL must be fenced off by the epoch
    // stamp — replaying even one record would double-apply it.
    let src = build_incremental_scenario("incr_reset_matrix_src", 2, 3);
    let snap = std::fs::read(src.join(SNAPSHOT_FILE)).unwrap();
    let stale_wal = std::fs::read(src.join(WAL_FILE)).unwrap();
    open_db(&src).checkpoint_incremental().unwrap();
    let (_, delta_path) = DeltaFile::list(&src).unwrap().pop().unwrap();
    let delta = std::fs::read(&delta_path).unwrap();
    let delta_name = delta_path.file_name().unwrap().to_owned();
    let scratch = temp_dir("incr_reset_matrix_cut");
    for cut in 0..=stale_wal.len() {
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join(SNAPSHOT_FILE), &snap).unwrap();
        std::fs::write(scratch.join(&delta_name), &delta).unwrap();
        std::fs::write(scratch.join(WAL_FILE), &stale_wal[..cut]).unwrap();
        let rec = recover(&scratch);
        assert_eq!(rec.db.epoch(), 2, "delta epoch wins (cut {cut})");
        assert_eq!(rec.db.recovery().deltas_folded, 1, "cut {cut}");
        assert_eq!(
            rec.db.recovery().wal_records_replayed,
            0,
            "stale records replayed at cut {cut}"
        );
        assert_eq!(rec.rows("readings"), 5, "epoch mix: tuple count drifted at cut {cut}");
        rec.db.check_invariants().unwrap_or_else(|e| panic!("invariants at cut {cut}: {e}"));
        assert_eq!(rec.db.wal_len(), 0, "stale log must be reset (cut {cut})");
    }
    std::fs::remove_dir_all(&src).ok();
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn stale_wal_discard_counter_is_golden() {
    // Crash between checkpoint commit and WAL reset, with the *whole*
    // stale log surviving: the discard counter must account for exactly
    // the records written before the checkpoint, transaction markers
    // included — the create-table transaction's begin + schema + commit,
    // then begin + base + tuple + commit for each of 3 inserts: 3 + 3 × 4
    // = 15 — no more, no less.
    let dir = temp_dir("stale_golden");
    {
        let db = open_db(&dir);
        create_readings(&db);
        insert_ids(&db, 0..3);
    }
    let stale_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    open_db(&dir).checkpoint().unwrap();
    assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0);
    // Resurrect the pre-checkpoint log: the simulated torn reset.
    std::fs::write(dir.join(WAL_FILE), &stale_wal).unwrap();
    let rec = recover(&dir);
    assert!(rec.db.recovery().snapshot_loaded);
    assert_eq!(rec.db.recovery().stale_wal_records_discarded, 15, "3 + 3 × 4 frames");
    assert_eq!(rec.db.recovery().wal_records_replayed, 0);
    assert_eq!(rec.rows("readings"), 3, "no double-apply");
    rec.db.check_invariants().unwrap();
    // The counter surfaces verbatim in the grepable stats JSON.
    assert!(rec.db.stats_json().contains("\"stale_wal_records_discarded\":15"));
    drop(rec);
    // Idempotent: the discard is durable, a second open sees a clean log.
    let rec = recover(&dir);
    assert_eq!(rec.db.recovery().stale_wal_records_discarded, 0);
    assert_eq!(rec.rows("readings"), 3);
    // Same fence after an *incremental* checkpoint: epoch 1 → 2.
    let db = rec.db;
    insert_ids(&db, 77..78);
    let stale_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    db.checkpoint_incremental().unwrap();
    drop(db);
    std::fs::write(dir.join(WAL_FILE), &stale_wal).unwrap();
    let rec = recover(&dir);
    // Epoch stamp + begin + base + tuple + commit survived the simulated
    // torn reset.
    assert_eq!(rec.db.recovery().stale_wal_records_discarded, 5, "stamp + 4 insert frames");
    assert_eq!(rec.rows("readings"), 4);
    rec.db.check_invariants().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_delta_cleanup_counter_is_golden() {
    // A full checkpoint that crashes between the snapshot rename and the
    // delta cleanup leaves deltas whose epochs the snapshot has subsumed;
    // recovery must delete them and count exactly how many.
    let dir = temp_dir("stale_delta_golden");
    {
        let db = open_db(&dir);
        create_readings(&db);
        for i in 0..2 {
            insert_ids(&db, i..i + 1);
            db.checkpoint_incremental().unwrap();
        }
        assert_eq!(DeltaFile::list(&dir).unwrap().len(), 1, "epoch 1 full + epoch 2 delta");
        insert_ids(&db, 9..10);
        // Save the delta, run the full checkpoint, then put it back —
        // simulating the crash before cleanup.
        let (_, delta_path) = DeltaFile::list(&dir).unwrap().pop().unwrap();
        let stale = std::fs::read(&delta_path).unwrap();
        db.checkpoint().unwrap();
        assert!(DeltaFile::list(&dir).unwrap().is_empty());
        std::fs::write(&delta_path, &stale).unwrap();
    }
    let rec = recover(&dir);
    assert_eq!(rec.db.recovery().stale_deltas_removed, 1, "exactly the resurrected delta");
    assert_eq!(rec.db.recovery().deltas_folded, 0);
    assert_eq!(rec.db.epoch(), 3);
    assert_eq!(rec.rows("readings"), 3);
    rec.db.check_invariants().unwrap();
    assert!(DeltaFile::list(&dir).unwrap().is_empty(), "stale delta physically deleted");
    assert!(rec.db.stats_json().contains("\"stale_deltas_removed\":1"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A self-describing record: 8-byte index followed by that index repeated.
fn marked_record(i: u64, len: usize) -> Vec<u8> {
    let mut rec = i.to_le_bytes().to_vec();
    rec.resize(8 + len, (i % 251) as u8);
    rec
}

fn record_is_intact(rec: &[u8]) -> bool {
    if rec.len() < 8 {
        return false;
    }
    let i = u64::from_le_bytes(rec[..8].try_into().unwrap());
    rec[8..].iter().all(|&b| b == (i % 251) as u8)
}

/// Runs the heap workload until the injected kill, then reopens cleanly.
/// Returns (records inserted before the kill, fault stats snapshot).
fn run_until_kill(
    path: &std::path::Path,
    plan: FaultPlan,
) -> (u64, std::sync::Arc<orion_storage::faults::FaultStats>) {
    std::fs::remove_file(path).ok();
    let store = FaultyStore::new(FileStore::create(path).unwrap(), plan);
    let stats = store.stats();
    let mut heap = HeapFile::new(store, 4);
    let mut inserted = 0u64;
    for i in 0..200u64 {
        if heap.insert(&marked_record(i, 600)).is_err() {
            break;
        }
        inserted += 1;
        if i % 16 == 0 && heap.pool().flush().is_err() {
            break;
        }
    }
    let _ = heap.pool().flush();
    (inserted, stats)
}

#[test]
fn storage_crash_matrix_reads_clean_prefix_or_detects_torn_page() {
    let plan = FaultPlan::seeded(0xC0FFEE, 64, 8);
    let points = plan.write_fault_points();
    assert!(!points.is_empty(), "seeded plan must schedule write faults");
    let path = temp_dir("storage_matrix").join("heap.dat");
    let mut torn_detected = 0u64;
    // The matrix: one run per (kill point, fault shape).
    for &nth in &points {
        for shape in 0..2 {
            let plan = match shape {
                0 => FaultPlan::new().fail_write(nth),
                _ => FaultPlan::new().torn_write(nth, PAGE_SIZE / 3),
            };
            let (inserted, fstats) = run_until_kill(&path, plan);
            // Kill happened iff the workload generated enough writes.
            let killed = fstats.faults_injected.get() > 0;
            // Post-crash: reopen the *inner* file cleanly, like a restart.
            let heap = HeapFile::new(FileStore::open(&path).unwrap(), 4);
            let mut seen = 0u64;
            let scan = heap.scan(|_, rec| {
                assert!(record_is_intact(rec), "committed record corrupted (kill at {nth})");
                seen += 1;
                true
            });
            match scan {
                Ok(()) => assert!(seen <= inserted, "more records than inserted (kill at {nth})"),
                Err(e) => {
                    // Only a torn write may leave an unreadable page, and
                    // the pool must classify it as corruption.
                    assert!(killed && shape == 1, "unexpected scan failure: {e} (kill at {nth})");
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                    assert!(heap.pool().stats().snapshot().torn_pages > 0);
                    torn_detected += 1;
                }
            }
        }
    }
    assert!(torn_detected > 0, "matrix must exercise torn-page detection");
    std::fs::remove_file(&path).ok();
}

#[test]
fn halt_on_fault_kill_leaves_parseable_flight_dump() {
    // The black-box contract: a simulated kill (halt-on-fault) must leave
    // a flight-recorder dump behind, and that dump must be parseable JSON
    // carrying the kill reason and the spans recorded before the kill.
    use orion_obs::{json, recorder, Tracer};
    let dir = temp_dir("flight_dump");
    let recorder_was = recorder::enabled();
    recorder::set_enabled(true);
    let tracer = Tracer::global();
    let tracer_was = tracer.enabled();
    tracer.set_enabled(true);
    {
        // Guarantee the flight ring holds at least one pre-kill span.
        let lane = tracer.unique_lane("crash-workload");
        let mut s = lane.span("before-kill", "test");
        s.arg("note", "recorded before the simulated kill");
    }
    let path = dir.join("heap.dat");
    // Concurrent tests may re-point the process-wide dump dir (every
    // SharedDurableDb::open does); re-arm and retry to make the race
    // harmless.
    let mut dump = None;
    for _ in 0..5 {
        recorder::set_dump_dir(&dir);
        let (_inserted, fstats) = run_until_kill(&path, FaultPlan::new().fail_write(0));
        assert!(fstats.faults_injected.get() > 0, "the kill must fire");
        dump = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("flight-")));
        if dump.is_some() {
            break;
        }
    }
    tracer.set_enabled(tracer_was);
    recorder::set_enabled(recorder_was);
    let dump = dump.expect("halt-on-fault kill wrote a flight dump");
    let text = std::fs::read_to_string(&dump).unwrap();
    let doc = json::parse(&text).expect("flight dump parses");
    let reason = doc.get("reason").and_then(json::Value::as_str).expect("reason recorded");
    assert!(reason.contains("halt-on-fault"), "reason: {reason}");
    // The dedicated validator (also behind the `trace_check` binary)
    // checks the reason string plus the trace-event structure.
    orion_obs::validate_flight_dump(&doc).unwrap_or_else(|e| panic!("flight dump malformed: {e}"));
    assert!(text.contains("before-kill"), "pre-kill span survives in the dump");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_bit_flip_is_detected_by_the_pool() {
    let path = temp_dir("bit_flip").join("heap.dat");
    {
        let mut heap = HeapFile::new(FileStore::create(&path).unwrap(), 4);
        for i in 0..20u64 {
            heap.insert(&marked_record(i, 300)).unwrap();
        }
        heap.sync().unwrap();
    }
    // Reopen through a store that flips one bit on the first read.
    let store =
        FaultyStore::new(FileStore::open(&path).unwrap(), FaultPlan::new().flip_read(0, 12_345));
    let fstats = store.stats();
    let heap = HeapFile::new(store, 4);
    let err = heap.scan(|_, _| true).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("torn page"));
    assert_eq!(fstats.read_bit_flips.get(), 1);
    // Golden: exactly the one flipped page is counted, nothing else.
    assert_eq!(heap.pool().stats().snapshot().torn_pages, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn recovery_and_fault_counters_are_grepable() {
    // The observability contract: every durability counter surfaces in a
    // stats JSON a harness can grep.
    let dir = temp_dir("counters");
    let db = open_db(&dir);
    create_readings(&db);
    insert_ids(&db, 1..2);
    drop(db);
    let s = open_db(&dir).stats_json();
    // Schema + base + tuple records replay; transaction markers are framing.
    assert!(s.contains("\"wal_records_replayed\":3"), "stats: {s}");
    assert!(s.contains("\"wal_bytes_truncated\":0"), "stats: {s}");

    let store = FaultyStore::new(orion_storage::MemStore::new(), FaultPlan::new().fail_write(0));
    let fjson = store.stats().to_json().to_string_compact();
    assert!(fjson.contains("\"faults_injected\""));

    let heap = HeapFile::new(orion_storage::MemStore::new(), 4);
    let iojson = heap.pool().stats().snapshot().to_json().to_string_compact();
    assert!(iojson.contains("\"torn_pages\""));
    assert!(iojson.contains("\"write_errors\""));
    std::fs::remove_dir_all(&dir).ok();
}

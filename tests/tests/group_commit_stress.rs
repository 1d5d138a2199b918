//! Group-commit stress (`--features failpoints`): many threads commit
//! single-statement insert transactions against one [`SharedDurableDb`]
//! while WAL faults are injected mid-run. The durability contract under
//! test:
//!
//! * every commit that was **acked** (returned `Ok`) survives recovery;
//! * every commit that was **nacked** (returned `Err`) leaves no trace —
//!   neither in memory nor on disk after recovery;
//! * no reader ever observes a write whose commit is later nacked: the
//!   engine applies a commit only after its WAL batch is durable.
#![cfg(feature = "failpoints")]

use orion_core::durable::SharedDurableDb;
use orion_core::prelude::*;
use orion_pdf::prelude::*;
use orion_storage::GroupCommitConfig;
use orion_tests::{recover, txn_create_table, txn_insert_simple};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("orion_group_commit_stress").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema() -> ProbSchema {
    ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
        .unwrap()
}

fn batching_config() -> GroupCommitConfig {
    GroupCommitConfig {
        window: Duration::from_millis(2),
        max_batch_bytes: 1 << 20,
        ..GroupCommitConfig::default()
    }
}

/// Opens `dir` with a batching window and creates the `readings` table.
fn open_readings(dir: &std::path::Path) -> SharedDurableDb {
    let db = SharedDurableDb::open(dir, batching_config()).unwrap();
    txn_create_table(&db, "readings", schema()).unwrap();
    db
}

fn insert(db: &SharedDurableDb, id: i64) -> EngineResult<u64> {
    txn_insert_simple(
        db,
        "readings",
        &[("id", Value::Int(id))],
        &[("v", Pdf1::gaussian(id as f64, 1.0).unwrap())],
    )
}

/// Ids present in the `readings` table (certain column 0).
fn ids_of(rel: &Relation) -> BTreeSet<i64> {
    rel.tuples
        .iter()
        .map(|t| match t.certain[0] {
            Value::Int(i) => i,
            ref v => panic!("unexpected id value {v:?}"),
        })
        .collect()
}

fn live_ids(db: &SharedDurableDb) -> BTreeSet<i64> {
    db.with_tables(|tables, _| ids_of(&tables["readings"]))
}

/// Recovers the directory fresh and returns the surviving ids.
fn recovered_ids(dir: &std::path::Path) -> BTreeSet<i64> {
    let rec = recover(dir);
    rec.db.check_invariants().unwrap();
    ids_of(&rec.tables["readings"])
}

/// Commits `threads × per_thread` concurrent insert transactions, with
/// thread 0 calling `fault(db, i)` before each of its own. A reader thread
/// snapshots the live table throughout. Returns (acked ids, nacked ids,
/// every id the reader saw).
fn hammer(
    db: &SharedDurableDb,
    threads: i64,
    per_thread: i64,
    fault: impl Fn(&SharedDurableDb, i64) + Sync,
) -> (BTreeSet<i64>, BTreeSet<i64>, BTreeSet<i64>) {
    let acked = Mutex::new(BTreeSet::new());
    let nacked = Mutex::new(BTreeSet::new());
    let seen = Mutex::new(BTreeSet::new());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                seen.lock().unwrap().extend(live_ids(db));
                std::thread::yield_now();
            }
        });
        let writers: Vec<_> = (0..threads)
            .map(|t| {
                let (acked, nacked, fault) = (&acked, &nacked, &fault);
                s.spawn(move || {
                    for i in 0..per_thread {
                        let id = t * 10_000 + i;
                        if t == 0 {
                            fault(db, i);
                        }
                        match insert(db, id) {
                            Ok(_) => drop(acked.lock().unwrap().insert(id)),
                            Err(_) => drop(nacked.lock().unwrap().insert(id)),
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    });
    (acked.into_inner().unwrap(), nacked.into_inner().unwrap(), seen.into_inner().unwrap())
}

#[test]
fn concurrent_commits_are_acked_and_survive_recovery() {
    let dir = temp_dir("fault_free");
    let db = open_readings(&dir);
    let (acked, nacked, seen) = hammer(&db, 8, 40, |_, _| {});
    assert_eq!(acked.len(), 8 * 40, "fault-free run acks everything");
    assert!(nacked.is_empty());
    assert!(seen.is_subset(&acked), "readers see only acked commits");
    db.check_invariants().unwrap();
    assert_eq!(live_ids(&db), acked);

    let stats = db.wal_stats();
    let commits = stats.group_commit_commits.get();
    assert_eq!(commits, 8 * 40 + 1, "every insert plus the schema is one commit");
    assert_eq!(
        stats.fsyncs_saved.get(),
        commits - stats.fsyncs.get(),
        "ledger: saved = commits − fsyncs"
    );
    drop(db);
    assert_eq!(recovered_ids(&dir), acked, "recovery returns exactly the acked set");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_sync_failures_nack_whole_batches_but_never_acked_commits() {
    let dir = temp_dir("sync_faults");
    let db = open_readings(&dir);
    // Fails the *next batch* fsync: whichever commits share that batch all
    // get nacked.
    let (acked, nacked, seen) = hammer(&db, 8, 25, |db, i| {
        if i % 5 == 0 {
            db.inject_wal_sync_failure();
        }
    });
    assert!(!nacked.is_empty(), "injected sync failures must nack some commits");
    assert!(!acked.is_empty(), "retries between faults must still land commits");
    assert!(seen.is_disjoint(&nacked), "a reader saw a write whose commit was nacked");
    db.check_invariants().unwrap();
    // Nothing nacked was ever applied; every ack was.
    assert_eq!(live_ids(&db), acked);
    drop(db);
    let recovered = recovered_ids(&dir);
    assert_eq!(recovered, acked, "acked ⊆ recovered and recovered ⊆ acked");
    assert!(recovered.is_disjoint(&nacked), "no nacked commit may resurrect");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn append_failpoint_under_concurrency_nacks_exactly_the_poisoned_commit() {
    let dir = temp_dir("append_fault");
    let db = open_readings(&dir);
    // Deterministic single-threaded probe first: the very next record (the
    // transaction's begin marker) fails, and the commit applies nothing.
    db.inject_wal_append_failure(0);
    assert!(insert(&db, -1).is_err());
    db.check_invariants().unwrap();
    assert!(live_ids(&db).is_empty());
    // Then a concurrent burst with a handful of per-record faults sprayed
    // in: whoever draws the poisoned record nacks, everyone else lands.
    let (acked, nacked, seen) = hammer(&db, 4, 20, |db, i| {
        if i % 7 == 0 {
            db.inject_wal_append_failure(3);
        }
    });
    assert!(!nacked.is_empty(), "the sprayed faults must nack some commits");
    assert!(seen.is_disjoint(&nacked), "a reader saw a write whose commit was nacked");
    db.check_invariants().unwrap();
    assert_eq!(live_ids(&db), acked);
    drop(db);
    assert_eq!(recovered_ids(&dir), acked);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_interleaved_with_writers_preserve_the_acked_set() {
    let dir = temp_dir("ckpt_interleave");
    let db = open_readings(&dir);
    let acked = Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for t in 0..4i64 {
            let (db, acked) = (&db, &acked);
            s.spawn(move || {
                for i in 0..30 {
                    let id = t * 10_000 + i;
                    if insert(db, id).is_ok() {
                        acked.lock().unwrap().insert(id);
                    }
                }
            });
        }
        // A checkpointer thread alternates full and incremental snapshots
        // while the writers run; each holds the core lock, so no commit
        // lands mid-snapshot.
        let db = &db;
        s.spawn(move || {
            for round in 0..6 {
                if round % 2 == 0 {
                    db.checkpoint_incremental().unwrap();
                } else {
                    db.checkpoint().unwrap();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    });
    let acked = acked.into_inner().unwrap();
    assert_eq!(acked.len(), 4 * 30);
    db.check_invariants().unwrap();
    drop(db);
    assert_eq!(recovered_ids(&dir), acked, "chain + WAL recovery loses nothing");
    std::fs::remove_dir_all(&dir).ok();
}

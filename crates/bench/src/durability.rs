//! Durability figure — **full vs incremental checkpoints**.
//!
//! A table of `N` tuples is checkpointed in full, then receives a small
//! tail of inserts and is checkpointed incrementally. The incremental
//! delta must copy only the dirty pages; each row reports latency and the
//! copied/skipped page split from the I/O counters. (Group-commit fsync
//! sharing for SQL commits is the e2e `storage.wal_fsyncs_per_commit`
//! metric on `txn_mix`.)

use orion_core::prelude::*;
use orion_obs::json;
use orion_pdf::prelude::*;
use orion_storage::GroupCommitConfig;
use std::path::Path;
use std::time::Instant;

/// Configuration for the checkpoint sweep.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Table sizes (tuples) for the checkpoint figure.
    pub checkpoint_sizes: Vec<usize>,
    /// Tail inserts between the full and the incremental checkpoint.
    pub checkpoint_tail: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { checkpoint_sizes: vec![1_000, 4_000], checkpoint_tail: 16 }
    }
}

/// One checkpoint measurement cell.
#[derive(Debug, Clone)]
pub struct CheckpointRow {
    /// `"full"` or `"incremental"`.
    pub kind: String,
    /// Tuples resident when the checkpoint ran.
    pub tuples: usize,
    /// Checkpoint latency in seconds.
    pub secs: f64,
    /// Pages written into the snapshot/delta.
    pub pages_copied: u64,
    /// Clean pages the incremental checkpoint skipped.
    pub pages_skipped: u64,
}

impl CheckpointRow {
    /// JSON form of the cell.
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("kind", self.kind.as_str())
            .with("tuples", self.tuples)
            .with("secs", self.secs)
            .with("pages_copied", self.pages_copied)
            .with("pages_skipped", self.pages_skipped)
    }
}

fn bench_schema() -> ProbSchema {
    ProbSchema::new(vec![("id", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
        .unwrap()
}

/// Inserts ids `from..from + n` in one transaction.
fn fill(db: &SharedDurableDb, from: usize, n: usize) {
    let mut txn = Txn::begin(db);
    for i in from..from + n {
        txn.insert_simple(
            "readings",
            &[("id", Value::Int(i as i64))],
            &[("v", Pdf1::gaussian(i as f64, 1.0).unwrap())],
        )
        .unwrap();
    }
    txn.commit().unwrap();
}

fn ckpt_pages(db: &SharedDurableDb) -> (u64, u64) {
    let io = db.io_stats().snapshot();
    (io.ckpt_pages_copied, io.ckpt_pages_skipped)
}

/// The checkpoint sweep: for each size, one full checkpoint over the whole
/// table and one incremental checkpoint after a small tail of inserts.
pub fn run_checkpoints(cfg: &DurabilityConfig, dir: &Path) -> Vec<CheckpointRow> {
    let mut rows = Vec::new();
    for &n in &cfg.checkpoint_sizes {
        let dir = dir.join(format!("ckpt_{n}"));
        std::fs::remove_dir_all(&dir).ok();
        let db = SharedDurableDb::open(&dir, GroupCommitConfig::default()).unwrap();
        let mut txn = Txn::begin(&db);
        txn.create_table("readings", bench_schema()).unwrap();
        txn.commit().unwrap();
        fill(&db, 0, n);
        let before = ckpt_pages(&db);
        let t0 = Instant::now();
        db.checkpoint().unwrap();
        let full_secs = t0.elapsed().as_secs_f64();
        let after = ckpt_pages(&db);
        rows.push(CheckpointRow {
            kind: "full".to_string(),
            tuples: n,
            secs: full_secs,
            pages_copied: after.0 - before.0,
            pages_skipped: after.1 - before.1,
        });

        fill(&db, n, cfg.checkpoint_tail);
        let before = ckpt_pages(&db);
        let t0 = Instant::now();
        db.checkpoint_incremental().unwrap();
        let incr_secs = t0.elapsed().as_secs_f64();
        let after = ckpt_pages(&db);
        rows.push(CheckpointRow {
            kind: "incremental".to_string(),
            tuples: n + cfg.checkpoint_tail,
            secs: incr_secs,
            pages_copied: after.0 - before.0,
            pages_skipped: after.1 - before.1,
        });
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    rows
}

/// JSON artifact over the checkpoint sweep.
pub fn to_json(ckpt: &[CheckpointRow]) -> json::Value {
    let mut ck_arr = json::Value::array();
    for r in ckpt {
        ck_arr.push(r.to_json());
    }
    json::Value::object().with("figure", "fig_durability").with("checkpoints", ck_arr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("orion_fig_durability").join(tag);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn incremental_checkpoint_skips_most_pages() {
        let cfg = DurabilityConfig { checkpoint_sizes: vec![2_000], checkpoint_tail: 8 };
        let dir = scratch_dir("ckpt_test");
        let rows = run_checkpoints(&cfg, &dir);
        std::fs::remove_dir_all(&dir).ok();
        let full = rows.iter().find(|r| r.kind == "full").unwrap();
        let incr = rows.iter().find(|r| r.kind == "incremental").unwrap();
        assert!(full.pages_copied > 0);
        assert!(incr.pages_skipped > 0, "{incr:?}");
        assert!(
            incr.pages_copied < full.pages_copied,
            "a small tail must not re-copy the table: {incr:?} vs {full:?}"
        );
    }

    #[test]
    fn json_artifact_carries_checkpoint_sweep() {
        let ck = vec![CheckpointRow {
            kind: "incremental".into(),
            tuples: 100,
            secs: 0.01,
            pages_copied: 2,
            pages_skipped: 30,
        }];
        let text = to_json(&ck).to_string_compact();
        assert!(text.contains("\"pages_skipped\""), "{text}");
        assert!(text.contains("\"fig_durability\""), "{text}");
    }
}

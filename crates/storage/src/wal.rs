//! Write-ahead log: an append-only file of length+CRC32-framed records.
//!
//! Frame layout (little-endian):
//! ```text
//! [0..4)  payload length (u32)
//! [4..8)  CRC32 of the payload
//! [8..)   payload bytes
//! ```
//!
//! Durability discipline: [`Wal::append`] buffers into the OS; callers
//! decide the commit point by calling [`Wal::sync`] (fdatasync). A record
//! is *committed* iff its full frame is on stable storage with a matching
//! CRC.
//!
//! Replay ([`Wal::open`]) walks frames from the start and stops at the
//! first incomplete or CRC-mismatched frame — the signature of a crash
//! mid-append — then **truncates the file back to the last good frame**,
//! discarding trailing garbage so later appends never interleave with it.
//!
//! **Group commit.** [`GroupWal`] wraps a [`Wal`] with a leader/follower
//! commit pipeline: concurrent committers each enqueue one frame under a
//! queue mutex, exactly one of them becomes the *leader*, drains the whole
//! queue, performs a single contiguous `append + fsync` for the group, and
//! wakes the followers blocked on their commit sequence number through a
//! condvar. While the leader is inside the fsync the queue mutex is free,
//! so late arrivals keep enqueuing and naturally form the next group —
//! under concurrency one fsync covers many commits.

use crate::checksum::crc32;
use orion_obs::{json, Counter, Histogram};
use parking_lot::{Condvar, Mutex};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame header size: payload length + CRC32.
pub const FRAME_HEADER: usize = 8;

/// Upper bound on one record's payload: the u32 length field's limit. A
/// frame carries a whole transaction, so there is no lower cap. Replay
/// reads the whole file and checks each frame's CRC, so a garbage length
/// field still ends at the torn tail.
pub const MAX_RECORD: usize = u32::MAX as usize;

/// What replay found in an existing log.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Every committed record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of trailing garbage discarded (torn final append).
    pub truncated_bytes: u64,
    /// Offset of the end of the last committed record.
    pub valid_bytes: u64,
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    len: u64,
    /// Set when a physical truncation failed: the on-disk tail may hold
    /// stale committed-looking frames we could not remove, so appends are
    /// refused until a truncation succeeds (see [`Wal::truncate_to`]).
    poisoned: bool,
    #[cfg(feature = "failpoints")]
    fail_append_in: Option<u32>,
    #[cfg(feature = "failpoints")]
    fail_next_sync: bool,
}

/// Rejects a payload whose length the u32 frame header cannot carry.
fn check_record_len(len: usize) -> std::io::Result<()> {
    if len > MAX_RECORD {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("wal record of {len} bytes exceeds MAX_RECORD"),
        ));
    }
    Ok(())
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replaying every
    /// committed record and truncating any torn tail. Returns the log
    /// positioned at its end plus the replay report.
    pub fn open(path: &Path) -> std::io::Result<(Wal, WalReplay)> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut off = 0usize;
        while let Some(header) = bytes.get(off..off + FRAME_HEADER) {
            let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
            let Some(payload) = bytes.get(off + FRAME_HEADER..off + FRAME_HEADER + len) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            records.push(payload.to_vec());
            off += FRAME_HEADER + len;
        }

        let truncated = (bytes.len() - off) as u64;
        if truncated > 0 {
            file.set_len(off as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(off as u64))?;
        let replay = WalReplay { records, truncated_bytes: truncated, valid_bytes: off as u64 };
        let wal = Wal {
            file,
            len: off as u64,
            poisoned: false,
            #[cfg(feature = "failpoints")]
            fail_append_in: None,
            #[cfg(feature = "failpoints")]
            fail_next_sync: false,
        };
        Ok((wal, replay))
    }

    /// Appends one record (not yet durable — see [`Wal::sync`]). Returns
    /// the log length after the append.
    ///
    /// Always seeks to the tracked length first: a previously failed
    /// `write_all` leaves the file cursor at an unknown offset past a torn
    /// partial frame, and without the seek a later append would land after
    /// that garbage — committed-looking but unreachable on replay, which
    /// stops at the first bad frame.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "wal poisoned: a truncation failed and stale frames may remain on disk",
            ));
        }
        #[cfg(feature = "failpoints")]
        if let Some(n) = self.fail_append_in {
            if n == 0 {
                self.fail_append_in = None;
                return Err(std::io::Error::other("injected wal append failure"));
            }
            self.fail_append_in = Some(n - 1);
        }
        // One contiguous write per frame: header and payload are assembled
        // first so a crash can tear at most this single append.
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        Self::frame_into(payload, &mut frame)?;
        self.append_frames(&frame)
    }

    /// Frames one payload (length + CRC32 header) into `out`, rejecting
    /// payloads over [`MAX_RECORD`].
    pub fn frame_into(payload: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
        check_record_len(payload.len())?;
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Appends pre-framed bytes (one or more [`Wal::frame_into`] frames) in
    /// a **single contiguous write** — the physical half of group commit.
    /// Not yet durable; see [`Wal::sync`]. Returns the log length after the
    /// append. On a failed write the tracked length is unchanged, so the
    /// next append overwrites the torn tail (see [`Wal::append`]).
    pub fn append_frames(&mut self, frames: &[u8]) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "wal poisoned: a truncation failed and stale frames may remain on disk",
            ));
        }
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(frames)?;
        self.len += frames.len() as u64;
        Ok(self.len)
    }

    /// Forces every appended record to stable storage — the commit point.
    pub fn sync(&mut self) -> std::io::Result<()> {
        #[cfg(feature = "failpoints")]
        if self.fail_next_sync {
            self.fail_next_sync = false;
            return Err(std::io::Error::other("injected wal sync failure"));
        }
        self.file.sync_data()
    }

    /// Rolls the log back to `len` bytes, aborting frames appended after
    /// that point (an insert whose commit failed). The tracked length is
    /// reset even when the physical `set_len` fails — every append seeks to
    /// the tracked length, so retried records overwrite the aborted tail —
    /// but because fully written stale frames past the new tail could then
    /// align with a later frame boundary and replay as committed, a failed
    /// truncation also **poisons** the log: appends are refused until a
    /// truncation succeeds.
    pub fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        self.len = self.len.min(len);
        match self.file.set_len(len) {
            Ok(()) => {
                self.poisoned = false;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Empties the log (after a checkpoint has made its records redundant).
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.truncate_to(0)?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fault injection: the `nth` append from now (0 = the very next one)
    /// fails with an injected I/O error instead of writing.
    #[cfg(feature = "failpoints")]
    pub fn fail_nth_append(&mut self, nth: u32) {
        self.fail_append_in = Some(nth);
    }

    /// Fault injection: the next [`Wal::sync`] fails with an injected
    /// I/O error.
    #[cfg(feature = "failpoints")]
    pub fn fail_next_sync(&mut self) {
        self.fail_next_sync = true;
    }
}

/// Counters and histograms for the group-commit pipeline, shared with the
/// stats JSON and the `orion.metrics` rows of the engine that owns the log.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Frames made durable, one per commit (epoch stamps not counted).
    pub records_appended: Counter,
    /// Commit calls that went through the group pipeline.
    pub group_commit_commits: Counter,
    /// Leader flushes: one batched `append + fsync` per batch.
    pub group_commit_batches: Counter,
    /// Physical fsyncs issued (both group and per-commit modes).
    pub fsyncs: Counter,
    /// Fsyncs avoided by batching: `commits − 1` for every multi-commit
    /// batch. The headline group-commit win.
    pub fsyncs_saved: Counter,
    /// Bytes of frames per flushed batch.
    pub batch_bytes: Histogram,
    /// Latency of each fsync, in nanoseconds.
    pub fsync_nanos: Histogram,
}

impl WalStats {
    /// Snapshot as a JSON object (keys are stable; tests grep them).
    pub fn to_json(&self) -> json::Value {
        json::Value::object()
            .with("records_appended", self.records_appended.get())
            .with("group_commit_commits", self.group_commit_commits.get())
            .with("group_commit_batches", self.group_commit_batches.get())
            .with("fsyncs", self.fsyncs.get())
            .with("fsyncs_saved", self.fsyncs_saved.get())
    }
}

/// Tunables for the group-commit pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitConfig {
    /// When `false`, every commit performs its own `append + fsync`
    /// (the PR 2 behaviour, and the bench baseline).
    pub enabled: bool,
    /// How long a leader waits for stragglers before flushing, **but only
    /// when siblings are already queued** (cf. Postgres `commit_siblings`):
    /// a lone committer flushes immediately, so sequential workloads pay
    /// no latency tax. `Duration::ZERO` disables the wait entirely —
    /// batching then comes only from commits arriving while a leader's
    /// fsync is in flight, which is already most of the win.
    pub window: Duration,
    /// A leader flushes as soon as the queued frames reach this many
    /// bytes, even inside the batching window.
    pub max_batch_bytes: usize,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig { enabled: true, window: Duration::ZERO, max_batch_bytes: 1 << 20 }
    }
}

/// A commit range that failed its batched flush; each member commit
/// reconstructs the error from `kind`/`msg` when it wakes.
#[derive(Debug)]
struct FailedRange {
    lo: u64,
    hi: u64,
    kind: std::io::ErrorKind,
    msg: String,
    /// Commits in `[lo, hi]` that have not yet observed the failure; the
    /// range is dropped when this reaches zero.
    unclaimed: u64,
}

/// Queue state shared by all committers (guarded by `GroupWal::queue`).
#[derive(Debug, Default)]
struct Queue {
    /// Framed bytes awaiting the next leader flush.
    pending: Vec<u8>,
    /// Commits represented in `pending`.
    pending_commits: u64,
    /// Sequence number handed to the most recent commit.
    next_seq: u64,
    /// Every commit `≤ durable_seq` has been resolved (flushed or failed).
    durable_seq: u64,
    /// Whether some committer is currently the leader (possibly doing I/O
    /// with this mutex released).
    leader: bool,
    /// Framed epoch-stamp record a leader prepends when it finds the log
    /// empty, so every WAL generation opens with its checkpoint epoch.
    stamp: Option<Vec<u8>>,
    /// Failed batches whose members have not all woken yet.
    failed: Vec<FailedRange>,
    #[cfg(feature = "failpoints")]
    fail_record_in: Option<u32>,
}

impl Queue {
    /// If `seq` belongs to a failed batch, claims and returns its error.
    fn take_failure(&mut self, seq: u64) -> Option<std::io::Error> {
        let idx = self.failed.iter().position(|r| r.lo <= seq && seq <= r.hi)?;
        let range = &mut self.failed[idx];
        let err = std::io::Error::new(range.kind, range.msg.clone());
        range.unclaimed -= 1;
        if range.unclaimed == 0 {
            self.failed.swap_remove(idx);
        }
        Some(err)
    }
}

/// A [`Wal`] wrapped in the leader/follower group-commit pipeline.
///
/// [`GroupWal::commit`] is all-or-nothing for one caller's payload: it is
/// framed, enqueued, flushed by whichever committer is elected leader, and
/// on a failed flush the whole batch is truncated away — so callers never
/// see a partially durable commit.
#[derive(Debug)]
pub struct GroupWal {
    queue: Mutex<Queue>,
    cond: Condvar,
    io: Mutex<Wal>,
    cfg: GroupCommitConfig,
    stats: Arc<WalStats>,
}

impl GroupWal {
    /// Wraps an open [`Wal`] with the given tunables.
    pub fn new(wal: Wal, cfg: GroupCommitConfig) -> GroupWal {
        GroupWal {
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
            io: Mutex::new(wal),
            cfg,
            stats: Arc::new(WalStats::default()),
        }
    }

    /// Shared counters.
    pub fn stats(&self) -> Arc<WalStats> {
        Arc::clone(&self.stats)
    }

    /// Sets (or clears) the epoch-stamp payload prepended to an empty log.
    pub fn set_stamp(&self, payload: Option<&[u8]>) -> std::io::Result<()> {
        let framed = match payload {
            Some(p) => {
                let mut f = Vec::with_capacity(FRAME_HEADER + p.len());
                Wal::frame_into(p, &mut f)?;
                Some(f)
            }
            None => None,
        };
        self.queue.lock().stamp = framed;
        Ok(())
    }

    /// Commits `payload` as one frame: durable on `Ok`, absent on `Err`.
    /// Blocks until a leader (possibly this caller) has flushed — or failed
    /// to flush — the batch containing it.
    pub fn commit(&self, payload: &[u8]) -> std::io::Result<()> {
        // Frame outside any lock; an oversized payload fails only this caller.
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        Wal::frame_into(payload, &mut frame)?;

        let mut q = self.queue.lock();
        // Injected failures are consumed per commit at enqueue time.
        #[cfg(feature = "failpoints")]
        if let Some(n) = q.fail_record_in {
            if n == 0 {
                q.fail_record_in = None;
                return Err(std::io::Error::other("injected wal append failure"));
            }
            q.fail_record_in = Some(n - 1);
        }
        self.stats.group_commit_commits.inc();
        if !self.cfg.enabled {
            let stamp = q.stamp.clone();
            drop(q);
            return self.flush(&stamp, &frame, 1);
        }

        q.pending.extend_from_slice(&frame);
        q.pending_commits += 1;
        q.next_seq += 1;
        let my_seq = q.next_seq;

        loop {
            if let Some(err) = q.take_failure(my_seq) {
                return Err(err);
            }
            if q.durable_seq >= my_seq {
                return Ok(());
            }
            if q.leader {
                // A leader is flushing (or gathering); wait for its wakeup.
                self.cond.wait(&mut q);
                continue;
            }
            // Become the leader for everything queued so far.
            q.leader = true;
            if !self.cfg.window.is_zero()
                && q.pending_commits > 1
                && q.pending.len() < self.cfg.max_batch_bytes
            {
                // Siblings are queued: linger briefly so stragglers join
                // this fsync instead of paying for their own.
                self.cond.wait_for(&mut q, self.cfg.window);
            }
            let batch = std::mem::take(&mut q.pending);
            let ncommits = std::mem::take(&mut q.pending_commits);
            let hi = q.next_seq;
            let lo = q.durable_seq + 1;
            let stamp = q.stamp.clone();
            drop(q);

            // I/O happens with the queue mutex released: late arrivals keep
            // enqueuing during the fsync and form the next batch.
            let res = self.flush(&stamp, &batch, ncommits);

            q = self.queue.lock();
            q.leader = false;
            q.durable_seq = hi;
            match &res {
                Ok(()) => {
                    self.stats.group_commit_batches.inc();
                    self.stats.fsyncs_saved.add(ncommits.saturating_sub(1));
                }
                Err(e) => {
                    q.failed.push(FailedRange {
                        lo,
                        hi,
                        kind: e.kind(),
                        msg: e.to_string(),
                        unclaimed: hi - lo + 1,
                    });
                }
            }
            self.cond.notify_all();
            // Loop: `my_seq ≤ hi`, so the next iteration resolves this
            // commit via `durable_seq` or `take_failure`.
        }
    }

    /// One `append + fsync` of `frames` (`ncommits` commits), under the I/O
    /// lock only; the epoch stamp goes first when the log is empty. On
    /// failure the log is truncated back to where it was, so nothing of
    /// the batch survives.
    fn flush(&self, stamp: &Option<Vec<u8>>, frames: &[u8], ncommits: u64) -> std::io::Result<()> {
        let mut wal = self.io.lock();
        let start = wal.len();
        self.stats.batch_bytes.record(frames.len() as u64);
        let res = (|| {
            if wal.is_empty() {
                if let Some(s) = stamp {
                    wal.append_frames(s)?;
                }
            }
            wal.append_frames(frames)?;
            let t0 = Instant::now();
            let r = wal.sync();
            self.stats.fsync_nanos.record_duration(t0.elapsed());
            r
        })();
        match res {
            Ok(()) => {
                self.stats.records_appended.add(ncommits);
                self.stats.fsyncs.inc();
                Ok(())
            }
            Err(e) => {
                // Ignore a secondary truncation error — truncate_to poisons
                // the log, so later appends are refused.
                let _ = wal.truncate_to(start);
                Err(e)
            }
        }
    }

    /// Blocks until no commit is queued or being flushed. Callers that have
    /// externally stopped new commits (e.g. a checkpoint holding the engine
    /// lock) use this to drain the pipeline.
    pub fn quiesce(&self) {
        let mut q = self.queue.lock();
        while q.pending_commits > 0 || q.leader {
            self.cond.wait(&mut q);
        }
    }

    /// Empties the log (after a checkpoint made its records redundant).
    pub fn reset(&self) -> std::io::Result<()> {
        self.io.lock().reset()
    }

    /// Current log length in bytes.
    pub fn len(&self) -> u64 {
        self.io.lock().len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fault injection: the `nth` commit from now (0 = the very next)
    /// fails before anything is enqueued.
    #[cfg(feature = "failpoints")]
    pub fn fail_nth_record(&self, nth: u32) {
        self.queue.lock().fail_record_in = Some(nth);
    }

    /// Fault injection: the next physical [`Wal::sync`] fails, failing the
    /// whole batch that triggered it.
    #[cfg(feature = "failpoints")]
    pub fn fail_next_sync(&self) {
        self.io.lock().fail_next_sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        orion_obs::scratch_dir("wal-test").join(name)
    }

    #[test]
    fn append_sync_replay_round_trip() {
        let path = temp("roundtrip.wal");
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.records.is_empty());
            assert!(wal.is_empty());
            wal.append(b"first").unwrap();
            wal.append(b"").unwrap();
            wal.append(&[7u8; 1000]).unwrap();
            wal.sync().unwrap();
        }
        let (wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0], b"first");
        assert_eq!(replay.records[1], b"");
        assert_eq!(replay.records[2], vec![7u8; 1000]);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(wal.len(), replay.valid_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        let path = temp("torn.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"alpha").unwrap();
        let committed = wal.append(b"beta").unwrap();
        wal.append(b"gamma-torn").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Simulate a crash at every possible point inside the last append.
        for cut in committed as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.records.len(), 2, "cut at {cut}");
            assert_eq!(replay.truncated_bytes, (cut as u64).saturating_sub(committed), "at {cut}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), committed, "truncated at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_discards_record_and_everything_after() {
        let path = temp("crc.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let first_end = wal.append(b"good").unwrap();
        wal.append(b"to be corrupted").unwrap();
        wal.append(b"unreachable").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the middle record.
        bytes[first_end as usize + FRAME_HEADER] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0], b"good");
        assert_eq!(replay.valid_bytes, first_end);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_length_field_does_not_overrun() {
        let path = temp("garbage.wal");
        // A "length" of u32::MAX must not be trusted.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let (wal, replay) = Wal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.truncated_bytes, 16);
        assert!(wal.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn appends_after_truncation_do_not_interleave_with_garbage() {
        let path = temp("reappend.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Torn second append.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xFF, 0x00, 0x03]);
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.truncated_bytes, 3);
        wal.append(b"two").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp("reset.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"checkpointed away").unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        wal.append(b"fresh").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"fresh".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_lands_at_tracked_len_after_cursor_drift() {
        let path = temp("cursor.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(b"good").unwrap();
        wal.sync().unwrap();
        // Simulate a failed write_all that advanced the file cursor past
        // the tracked length, leaving a torn partial frame behind.
        wal.file.write_all(&[0xAA; 27]).unwrap();
        // The next append must overwrite that garbage, not follow it.
        wal.append(b"second").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"good".to_vec(), b"second".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_to_aborts_uncommitted_frames() {
        let path = temp("abort.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let committed = wal.append(b"committed").unwrap();
        wal.sync().unwrap();
        wal.append(b"aborted").unwrap();
        wal.truncate_to(committed).unwrap();
        assert_eq!(wal.len(), committed);
        wal.append(b"retried").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"committed".to_vec(), b"retried".to_vec()]);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_append_failure_fires_once() {
        let path = temp("inject.wal");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.fail_nth_append(1);
        wal.append(b"before").unwrap();
        assert!(wal.append(b"fails").is_err());
        wal.append(b"after").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"before".to_vec(), b"after".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_record_rejected() {
        // The bound is the u32 length field's; checked on the length alone
        // so the test never allocates 4 GiB.
        check_record_len(MAX_RECORD).unwrap();
        let err = check_record_len(MAX_RECORD + 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn group_commit_carries_a_frame_over_16_mib() {
        // Each frame is a whole transaction: one larger than the old 16 MiB
        // per-record cap must append and replay.
        let path = temp("group_big.wal");
        let (wal, _) = Wal::open(&path).unwrap();
        let group = GroupWal::new(wal, GroupCommitConfig::default());
        let big: Vec<u8> = (0..(1usize << 24) + 4096).map(|i| (i % 251) as u8).collect();
        group.commit(&big).unwrap();
        group.commit(b"after").unwrap();
        assert_eq!(group.stats().records_appended.get(), 2);
        drop(group);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 2);
        assert!(replay.records[0] == big, "the large frame replays byte for byte");
        assert_eq!(replay.records[1], b"after");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_round_trips_all_records() {
        let path = temp("group_roundtrip.wal");
        let (wal, _) = Wal::open(&path).unwrap();
        let group = GroupWal::new(wal, GroupCommitConfig::default());
        group.commit(b"ab").unwrap();
        group.commit(b"c").unwrap();
        assert_eq!(group.stats().records_appended.get(), 2, "one frame per commit");
        drop(group);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"ab".to_vec(), b"c".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_concurrent_batches_save_fsyncs() {
        let path = temp("group_threads.wal");
        let (wal, _) = Wal::open(&path).unwrap();
        let cfg = GroupCommitConfig {
            window: std::time::Duration::from_millis(2),
            ..GroupCommitConfig::default()
        };
        let group = Arc::new(GroupWal::new(wal, cfg));
        let threads = 8;
        let per = 25;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let g = Arc::clone(&group);
                std::thread::spawn(move || {
                    for i in 0..per {
                        g.commit(format!("t{t}-r{i}").as_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = group.stats();
        assert_eq!(stats.records_appended.get(), threads * per);
        assert_eq!(stats.group_commit_commits.get(), threads * per);
        assert_eq!(
            stats.fsyncs.get() + stats.fsyncs_saved.get(),
            threads * per,
            "every commit either fsynced or rode a leader's fsync"
        );
        drop(group);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records.len() as u64, threads * per);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_stamp_prefixes_every_wal_generation() {
        let path = temp("group_stamp.wal");
        let (wal, _) = Wal::open(&path).unwrap();
        let group = GroupWal::new(wal, GroupCommitConfig::default());
        group.set_stamp(Some(b"epoch:7")).unwrap();
        group.commit(b"x").unwrap();
        group.commit(b"y").unwrap();
        group.reset().unwrap();
        group.commit(b"z").unwrap();
        drop(group);
        let (_, replay) = Wal::open(&path).unwrap();
        // After the reset the stamp is re-prepended; before it, only once.
        assert_eq!(replay.records, vec![b"epoch:7".to_vec(), b"z".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn group_commit_failed_sync_aborts_whole_batch() {
        let path = temp("group_sync_fail.wal");
        let (wal, _) = Wal::open(&path).unwrap();
        let group = GroupWal::new(wal, GroupCommitConfig::default());
        group.commit(b"keep").unwrap();
        group.fail_next_sync();
        let err = group.commit(b"lost").unwrap_err();
        assert!(err.to_string().contains("injected"));
        group.commit(b"after").unwrap();
        drop(group);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"keep".to_vec(), b"after".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn group_commit_nth_record_failpoint_counts_across_commits() {
        let path = temp("group_nth.wal");
        let (wal, _) = Wal::open(&path).unwrap();
        let group = GroupWal::new(wal, GroupCommitConfig::default());
        group.fail_nth_record(2);
        group.commit(b"r0").unwrap();
        group.commit(b"r1").unwrap();
        // Frame #2 is this commit's: it fails, nothing of it is appended.
        assert!(group.commit(b"r2").is_err());
        group.commit(b"r3").unwrap();
        drop(group);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"r0".to_vec(), b"r1".to_vec(), b"r3".to_vec()]);
        std::fs::remove_file(&path).ok();
    }
}

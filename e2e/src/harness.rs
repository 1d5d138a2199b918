//! The untraced pass: builds the database through SQL, replays rounds of
//! statements in a closed loop, checks every answer, then crashes, recovers,
//! verifies and checkpoints. End-to-end metrics come from here only.

use crate::seam::{Failure, Session};
use crate::stats;
use crate::workloads::{check, write_bytes, Answer, Data, Op, Scale, TxnOp, Workload};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

/// Extra untimed statements before each round's timed ones, as a share.
const WARMUP_SHARE: f64 = 0.05;
/// A client gives a transaction up after this many conflict retries.
const TXN_RETRIES: u32 = 5;
/// Builds of the database when set-up time is measured: at least this many,
/// and more while they are quick, so that small tables get a steady median.
const SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 1.5;
const SETUPS_MAX: usize = 25;
/// Crash-and-reopen cycles per round.
const RECOVERIES: usize = 3;
/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 8;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock budget of the measured rounds.
    pub seconds: f64,
    pub scale: Scale,
    /// A directory of the run's own, on a real filesystem.
    pub data_dir: PathBuf,
    /// Whether set-up time is a result: the database is then built at
    /// least [`SETUPS`] times, and the median build is `setup_s`.
    pub measure_setup: bool,
}

/// What one pass observed. Times are per sample so the report can take
/// medians and the comparison can see spread.
#[derive(Debug, Default)]
pub struct Observed {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Latency of every timed operation, in order; rounds are slices of it.
    pub latency_ms: Vec<f64>,
    /// Wall time of the timed phases, summed over rounds.
    pub busy_s: f64,
    /// Timed operations that completed (committed, for `txn_mix`).
    pub ops: u64,
    /// Per round: completed operations per second of the timed phase, and
    /// the median and 95th percentile of the round's latencies.
    pub round_ops_per_s: Vec<f64>,
    pub round_p50_ms: Vec<f64>,
    pub round_p95_ms: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub checkpoint_s: Vec<f64>,
    pub disk_amp: Vec<f64>,
    pub rounds: u64,
    pub txn_retries: u64,
    pub txn_gave_up: u64,
}

impl Observed {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what);
        }
    }

    /// Runs one checked statement outside any timed phase; whether the
    /// engine acknowledged it.
    fn checked(&mut self, s: &mut Session, op: &Op) -> bool {
        self.attempted += 1;
        match s.run(&op.sql) {
            Ok(reply) => {
                if let Err(why) = check(&op.expect, &reply) {
                    self.fail(format!("{}: {why}", op.sql_head()));
                }
                true
            }
            Err(e) => {
                self.fail(format!("{}: {e}", op.sql_head()));
                false
            }
        }
    }

    /// Folds one client's share of a round into the pass.
    fn absorb(&mut self, client: Observed) {
        self.attempted += client.attempted;
        self.failed += client.failed;
        self.failures.extend(client.failures);
        self.failures.truncate(KEPT_FAILURES);
        self.latency_ms.extend(client.latency_ms);
        self.ops += client.ops;
        self.txn_retries += client.txn_retries;
        self.txn_gave_up += client.txn_gave_up;
    }
}

impl Op {
    fn sql_head(&self) -> &str {
        let end = self.sql.char_indices().nth(96).map_or(self.sql.len(), |(i, _)| i);
        &self.sql[..end]
    }
}

/// A database directory left behind by set-up and a checkpoint, copied
/// afresh for every round so each round starts from the same state.
pub struct Template {
    pub dir: PathBuf,
    /// INSERT / UPDATE statement text acknowledged while building it.
    pub acked_bytes: u64,
}

pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

pub fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    fresh_dir(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Builds the workload's database through SQL, timing each build; keeps
/// the last and checkpoints it (untimed: `checkpoint_s`
/// measures checkpoints on their own).
pub fn build_template(
    cfg: &RunConfig,
    data: &Data,
    obs: &mut Observed,
) -> Result<Template, Failure> {
    let dir = cfg.data_dir.join("template");
    let statements = data.setup_sql(cfg.workload);
    let mut acked_bytes = 0;
    let started = Instant::now();
    while obs.setup_s.is_empty()
        || cfg.measure_setup
            && obs.setup_s.len() < SETUPS_MAX
            && (obs.setup_s.len() < SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        fresh_dir(&dir).map_err(io_failure)?;
        acked_bytes = 0;
        let start = Instant::now();
        let mut s = Session::open(&dir)?;
        for sql in &statements {
            s.run(sql)?;
            acked_bytes += write_bytes(sql);
        }
        drop(s);
        obs.setup_s.push(start.elapsed().as_secs_f64());
    }
    let s = Session::open(&dir)?;
    s.checkpoint()?;
    Ok(Template { dir, acked_bytes })
}

pub fn io_failure(e: std::io::Error) -> Failure {
    Failure { retryable: false, message: format!("io: {e}") }
}

/// What a round wrote and the engine acknowledged.
#[derive(Default)]
pub struct Acked {
    bytes: u64,
    inserted: Vec<i64>,
}

fn warmup_count(n: usize) -> usize {
    (n as f64 * WARMUP_SHARE).ceil() as usize
}

/// One client's closed loop over single statements.
fn single_client_round(
    cfg: &RunConfig,
    data: &Data,
    round: u64,
    s: &mut Session,
    obs: &mut Observed,
) -> Acked {
    let w = cfg.workload;
    let n = w.round_ops();
    let ops = data.ops(w, cfg.seed, round, warmup_count(n) + n);
    let (warm, timed) = ops.split_at(warmup_count(n));
    let mut acked = Acked::default();
    for op in warm {
        if obs.checked(s, op) {
            acked.bytes += write_bytes(&op.sql);
            acked.inserted.extend(op.inserts);
        }
    }
    for op in timed {
        obs.attempted += 1;
        let start = Instant::now();
        let reply = s.run(&op.sql);
        let lat = start.elapsed().as_secs_f64();
        obs.busy_s += lat;
        match reply {
            Ok(reply) => {
                acked.bytes += write_bytes(&op.sql);
                acked.inserted.extend(op.inserts);
                match check(&op.expect, &reply) {
                    Ok(()) => {
                        obs.latency_ms.push(lat * 1e3);
                        obs.ops += 1;
                    }
                    Err(why) => obs.fail(format!("{}: {why}", op.sql_head())),
                }
            }
            Err(e) => obs.fail(format!("{}: {e}", op.sql_head())),
        }
    }
    acked
}

/// How one transaction ended.
pub enum TxnEnd {
    Committed { retries: u64 },
    GaveUp { retries: u64 },
    Broken(String),
}

/// BEGIN; SELECT; UPDATE; INSERT; COMMIT, retried from the top when the
/// commit loses a first-committer-wins race. Wrong answers are collected
/// into `wrong` and do not stop the transaction.
pub fn run_txn(s: &mut Session, t: &TxnOp, wrong: &mut Vec<String>) -> TxnEnd {
    let mut retries = 0;
    loop {
        if let Err(e) = s.run("BEGIN") {
            return TxnEnd::Broken(format!("BEGIN: {e}"));
        }
        for op in [&t.select, &t.update, &t.insert] {
            match s.run(&op.sql) {
                Ok(reply) => {
                    if let Err(why) = check(&op.expect, &reply) {
                        wrong.push(format!("{}: {why}", op.sql_head()));
                    }
                }
                Err(e) => {
                    let _ = s.run("ROLLBACK");
                    return TxnEnd::Broken(format!("{}: {e}", op.sql_head()));
                }
            }
        }
        match s.run("COMMIT") {
            Ok(reply) if reply.is_done() => return TxnEnd::Committed { retries },
            Ok(reply) => return TxnEnd::Broken(format!("COMMIT answered {:?}", reply.text())),
            Err(e) if e.retryable && retries < u64::from(TXN_RETRIES) => {
                retries += 1;
                std::thread::yield_now();
            }
            Err(e) if e.retryable => return TxnEnd::GaveUp { retries },
            Err(e) => return TxnEnd::Broken(format!("COMMIT: {e}")),
        }
    }
}

/// One client's share of a `txn_mix` round.
struct ClientRound {
    obs: Observed,
    acked: Acked,
    /// When the client's timed phase began and ended.
    span: (Instant, Instant),
}

fn txn_client(
    cfg: &RunConfig,
    data: &Data,
    round: u64,
    client: usize,
    mut s: Session,
    gate: &Barrier,
) -> ClientRound {
    let n = cfg.workload.round_ops();
    let txns = data.txn_ops(cfg.seed, round, client, warmup_count(n) + n);
    let (mut obs, mut acked) = (Observed::default(), Acked::default());
    let mut started = Instant::now();
    for (i, t) in txns.iter().enumerate() {
        let timed = i >= warmup_count(n);
        if i == warmup_count(n) {
            gate.wait();
            started = Instant::now();
        }
        obs.attempted += 1;
        let mut wrong = Vec::new();
        let start = Instant::now();
        let end = run_txn(&mut s, t, &mut wrong);
        let lat = start.elapsed().as_secs_f64();
        match end {
            TxnEnd::Committed { retries } => {
                obs.txn_retries += retries;
                acked.bytes += write_bytes(&t.update.sql) + write_bytes(&t.insert.sql);
                acked.inserted.extend(t.insert.inserts);
                if let Some(why) = wrong.into_iter().next() {
                    obs.fail(why);
                } else if timed {
                    obs.latency_ms.push(lat * 1e3);
                    obs.ops += 1;
                }
            }
            TxnEnd::GaveUp { retries } => {
                obs.txn_retries += retries;
                obs.txn_gave_up += 1;
                obs.fail(format!("gave up after {retries} conflict retries"));
            }
            TxnEnd::Broken(why) => obs.fail(why),
        }
    }
    ClientRound { obs, acked, span: (started, Instant::now()) }
}

pub fn txn_round(
    cfg: &RunConfig,
    data: &Data,
    round: u64,
    s: &Session,
    obs: &mut Observed,
) -> Acked {
    let clients = cfg.workload.clients();
    let gate = Barrier::new(clients);
    let results: Vec<ClientRound> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let session = s.client();
                let gate = &gate;
                scope.spawn(move || txn_client(cfg, data, round, c, session, gate))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut acked = Acked::default();
    let first = results.iter().map(|r| r.span.0).min().expect("at least one client");
    let last = results.iter().map(|r| r.span.1).max().expect("at least one client");
    obs.busy_s += last.duration_since(first).as_secs_f64();
    for r in results {
        obs.absorb(r.obs);
        acked.bytes += r.acked.bytes;
        acked.inserted.extend(r.acked.inserted);
    }
    acked
}

/// After recovery: every table holds exactly its seeded keys plus the
/// acknowledged inserts, each once, and the engine's invariants hold.
fn verify_contents(cfg: &RunConfig, s: &mut Session, inserted: &[i64], obs: &mut Observed) {
    let seeded = cfg.scale.rows(cfg.workload) as i64;
    for (i, (table, key)) in cfg.workload.tables().iter().enumerate() {
        obs.attempted += 1;
        let mut want: Vec<i64> = (0..seeded).collect();
        if i == 0 {
            want.extend_from_slice(inserted);
        }
        want.sort_unstable();
        match s.run(&format!("SELECT {key} FROM {table}")) {
            Ok(reply) => {
                let mut got = reply.keys(key).unwrap_or_default();
                got.sort_unstable();
                if got != want {
                    let lost = want.iter().filter(|k| got.binary_search(k).is_err()).count();
                    obs.fail(format!(
                        "after recovery {table} holds {} rows, {} acknowledged ({lost} lost)",
                        got.len(),
                        want.len()
                    ));
                }
            }
            Err(e) => obs.fail(format!("after recovery SELECT {key} FROM {table}: {e}")),
        }
    }
    obs.attempted += 1;
    if let Err(e) = s.check_invariants() {
        obs.fail(format!("check_invariants after recovery: {e}"));
    }
}

/// Reopens a directory whose session was dropped without a checkpoint and
/// waits for a first SELECT to answer; the time goes to `recovery_s`.
fn recover(w: Workload, dir: &Path, obs: &mut Observed) -> Result<Session, Failure> {
    let (table, key) = w.tables()[0];
    let first_select = format!("SELECT {key} FROM {table} WHERE {key} = 0");
    let start = Instant::now();
    let mut s = Session::open(dir)?;
    let first = s.run(&first_select);
    obs.recovery_s.push(start.elapsed().as_secs_f64());
    obs.attempted += 1;
    match first {
        Ok(reply) if reply.keys(key).as_deref() == Some(&[0]) => {}
        Ok(reply) => obs.fail(format!("first SELECT after recovery answered {:?}", reply.text())),
        Err(e) => obs.fail(format!("first SELECT after recovery: {e}")),
    }
    Ok(s)
}

/// One round: fresh copy of the template, warm-up, timed statements, crash
/// (drop without checkpoint), recovery, verification, checkpoint.
fn round(
    cfg: &RunConfig,
    data: &Data,
    template: &Template,
    round: u64,
    obs: &mut Observed,
) -> Result<(), Failure> {
    let dir = cfg.data_dir.join("round");
    copy_dir(&template.dir, &dir).map_err(io_failure)?;
    let mut s = Session::open(&dir)?;
    let (samples, busy, ops) = (obs.latency_ms.len(), obs.busy_s, obs.ops);
    let acked = if cfg.workload == Workload::TxnMix {
        txn_round(cfg, data, round, &s, obs)
    } else {
        single_client_round(cfg, data, round, &mut s, obs)
    };
    drop(s);
    let lat = stats::sorted(obs.latency_ms[samples..].to_vec());
    if obs.busy_s > busy {
        obs.round_ops_per_s.push((obs.ops - ops) as f64 / (obs.busy_s - busy));
    }
    obs.round_p50_ms.push(stats::percentile(&lat, 0.50));
    obs.round_p95_ms.push(stats::percentile(&lat, 0.95));

    // crash and recover a few times: nothing is checkpointed in between, so
    // every reopen loads the same snapshot and replays the same WAL tail
    let mut s = recover(cfg.workload, &dir, obs)?;
    for _ in 1..RECOVERIES {
        drop(s);
        s = recover(cfg.workload, &dir, obs)?;
    }
    verify_contents(cfg, &mut s, &acked.inserted, obs);

    let start = Instant::now();
    s.checkpoint()?;
    obs.checkpoint_s.push(start.elapsed().as_secs_f64());
    drop(s);
    let user_bytes = (template.acked_bytes + acked.bytes).max(1);
    obs.disk_amp.push(dir_bytes(&dir).map_err(io_failure)? as f64 / user_bytes as f64);
    obs.rounds += 1;
    Ok(())
}

/// The whole untraced pass.
pub fn run(cfg: &RunConfig) -> Result<Observed, Failure> {
    let data = Data::generate(cfg.workload, cfg.seed, cfg.scale);
    let mut obs = Observed::default();
    let template = build_template(cfg, &data, &mut obs)?;
    let started = Instant::now();
    let mut n = 0;
    loop {
        round(cfg, &data, &template, n, &mut obs)?;
        n += 1;
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    Ok(obs)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

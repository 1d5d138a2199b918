//! Workload repository: pg_stat_statements-style per-statement statistics
//! plus a bounded slow-query log.
//!
//! Every SQL statement the session layer executes is fingerprinted (the SQL
//! crate normalizes literals out of the AST and hashes the result) and its
//! execution folded into a bounded registry of per-fingerprint counters:
//! calls, errors, rows, latency (a log2 [`Histogram`]), pages read, pdf
//! operations, index probes and transaction retries. Statements whose
//! latency crosses [`WorkloadConfig::slow_nanos`] — or every Nth statement
//! when [`WorkloadConfig::sample_every`] is set — are additionally captured
//! into a bounded ring with their rendered `EXPLAIN ANALYZE` plan (including
//! the chosen-vs-rejected access-path prices).
//!
//! Both sides surface as virtual tables (`orion.statements`,
//! `orion.slow_queries`), and the slow ring dumps as validated JSON. The
//! repository lives and dies with its engine: nothing is persisted.
//!
//! Cost discipline matches the tracer: while disabled, the per-statement
//! price is one relaxed atomic load ([`WorkloadRepo::enabled`]).

use crate::json;
use crate::metrics::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Distinct fingerprints tracked before new ones fold into the catch-all
/// [`OVERFLOW_TEXT`] entry (so `sum(calls)` still conserves).
pub const DEFAULT_MAX_STATEMENTS: usize = 512;

/// Slow-query captures kept in the ring before the oldest is evicted.
pub const DEFAULT_MAX_SLOW: usize = 64;

/// Statement text of the catch-all entry absorbing fingerprints past
/// [`WorkloadConfig::max_statements`]. Its fingerprint is 0.
pub const OVERFLOW_TEXT: &str = "<overflow>";

/// Tuning knobs for a [`WorkloadRepo`], normally read from the environment
/// once at engine open ([`WorkloadConfig::from_env`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Whether statements are recorded at all (`ORION_STATEMENTS`, default
    /// on; `0` disables).
    pub enabled: bool,
    /// Latency threshold in nanoseconds above which a statement is captured
    /// into the slow ring (`ORION_SLOW_MS`; `0` captures everything, unset
    /// captures nothing by latency).
    pub slow_nanos: u64,
    /// Capture every Nth statement regardless of latency
    /// (`ORION_SLOW_SAMPLE=N`; 0 disables sampling).
    pub sample_every: u64,
    /// Distinct fingerprints tracked before overflow folding begins.
    pub max_statements: usize,
    /// Slow-query ring capacity.
    pub max_slow: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            enabled: true,
            slow_nanos: u64::MAX,
            sample_every: 0,
            max_statements: DEFAULT_MAX_STATEMENTS,
            max_slow: DEFAULT_MAX_SLOW,
        }
    }
}

impl WorkloadConfig {
    /// Reads `ORION_STATEMENTS`, `ORION_SLOW_MS` and `ORION_SLOW_SAMPLE` on
    /// top of the defaults.
    pub fn from_env() -> WorkloadConfig {
        let mut cfg = WorkloadConfig::default();
        if let Ok(v) = std::env::var("ORION_STATEMENTS") {
            cfg.enabled = v != "0";
        }
        if let Some(ms) = std::env::var("ORION_SLOW_MS").ok().and_then(|v| v.parse::<f64>().ok()) {
            cfg.slow_nanos = (ms * 1e6) as u64;
        }
        if let Some(n) = std::env::var("ORION_SLOW_SAMPLE").ok().and_then(|v| v.parse().ok()) {
            cfg.sample_every = n;
        }
        cfg
    }
}

/// One executed statement, as observed by the session layer.
#[derive(Debug, Clone, Default)]
pub struct ExecSample {
    /// Literal-normalized AST hash.
    pub fingerprint: u64,
    /// The normalized statement text (literals replaced by `?`).
    pub text: String,
    /// Wall time of the execution.
    pub nanos: u64,
    /// Rows returned (or affected, for DML).
    pub rows: u64,
    /// Whether execution returned an error (still counted: calls conserve).
    pub error: bool,
    /// Physical pages read during the execution.
    pub pages_read: u64,
    /// Pdf products + floors + marginalizations evaluated.
    pub pdf_ops: u64,
    /// Tuples examined against an index candidate mask.
    pub index_probes: u64,
    /// Autocommit retries spent on this statement.
    pub txn_retries: u64,
}

/// Why a statement entered the slow ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowCause {
    /// Latency crossed [`WorkloadConfig::slow_nanos`].
    Threshold,
    /// Picked by the 1-in-N sampler.
    Sampled,
}

impl SlowCause {
    /// Stable lowercase label (`slow` / `sampled`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SlowCause::Threshold => "slow",
            SlowCause::Sampled => "sampled",
        }
    }
}

/// Returned by [`WorkloadRepo::record`] when the statement should be
/// captured: the caller renders the plan and calls
/// [`WorkloadRepo::record_slow`].
#[derive(Debug, Clone, Copy)]
pub struct SlowTicket {
    /// Statement ordinal (1-based across the repository's lifetime).
    pub seq: u64,
    /// What triggered the capture.
    pub cause: SlowCause,
}

/// One captured slow (or sampled) statement.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Statement ordinal from the triggering [`SlowTicket`].
    pub seq: u64,
    /// Literal-normalized AST hash.
    pub fingerprint: u64,
    /// Normalized statement text.
    pub text: String,
    /// Wall time of the execution.
    pub nanos: u64,
    /// Rows returned.
    pub rows: u64,
    /// `slow` or `sampled`.
    pub cause: SlowCause,
    /// Rendered `EXPLAIN ANALYZE` tree with est/actual rows and the
    /// chosen-vs-rejected access-path prices (empty when the statement is
    /// not plan-capturable, e.g. DML).
    pub plan: String,
}

/// Accumulated statistics for one statement fingerprint.
#[derive(Debug, Clone)]
pub struct StatementStats {
    /// Literal-normalized AST hash (0 for the overflow catch-all).
    pub fingerprint: u64,
    /// Normalized statement text (first observed spelling wins).
    pub text: String,
    /// Executions, including failed ones.
    pub calls: u64,
    /// Executions that returned an error.
    pub errors: u64,
    /// Total rows returned across calls.
    pub rows: u64,
    /// Total wall time across calls.
    pub total_nanos: u64,
    /// Total physical pages read.
    pub pages_read: u64,
    /// Total pdf operations.
    pub pdf_ops: u64,
    /// Total index probes.
    pub index_probes: u64,
    /// Total autocommit retries.
    pub txn_retries: u64,
    /// Log2 latency distribution (count equals `calls`).
    pub latency: HistogramSnapshot,
}

impl StatementStats {
    /// Mean latency in nanoseconds.
    pub fn mean_nanos(&self) -> f64 {
        self.latency.mean()
    }

    /// Upper bound of the p99 latency bucket.
    pub fn p99_nanos(&self) -> u64 {
        self.latency.quantile_upper_bound(0.99)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    text: String,
    calls: u64,
    errors: u64,
    rows: u64,
    total_nanos: u64,
    pages_read: u64,
    pdf_ops: u64,
    index_probes: u64,
    txn_retries: u64,
    latency: Vec<u64>,
}

impl Entry {
    fn new(text: String) -> Entry {
        Entry {
            text,
            calls: 0,
            errors: 0,
            rows: 0,
            total_nanos: 0,
            pages_read: 0,
            pdf_ops: 0,
            index_probes: 0,
            txn_retries: 0,
            latency: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    fn fold(&mut self, sample: &ExecSample) {
        self.calls += 1;
        self.errors += u64::from(sample.error);
        self.rows += sample.rows;
        self.total_nanos += sample.nanos;
        self.pages_read += sample.pages_read;
        self.pdf_ops += sample.pdf_ops;
        self.index_probes += sample.index_probes;
        self.txn_retries += sample.txn_retries;
        self.latency[Histogram::bucket_index(sample.nanos)] += 1;
    }

    fn stats(&self, fingerprint: u64) -> StatementStats {
        StatementStats {
            fingerprint,
            text: self.text.clone(),
            calls: self.calls,
            errors: self.errors,
            rows: self.rows,
            total_nanos: self.total_nanos,
            pages_read: self.pages_read,
            pdf_ops: self.pdf_ops,
            index_probes: self.index_probes,
            txn_retries: self.txn_retries,
            latency: HistogramSnapshot {
                count: self.calls,
                sum: self.total_nanos,
                buckets: self.latency.clone(),
            },
        }
    }
}

#[derive(Debug, Default)]
struct RepoInner {
    cfg: WorkloadConfig,
    map: BTreeMap<u64, Entry>,
    slow: VecDeque<SlowQuery>,
    /// Distinct fingerprints folded into the overflow entry.
    overflowed: u64,
    /// Slow captures evicted from the ring.
    slow_evicted: u64,
}

/// The bounded per-engine statement repository. Shared via `Arc`; all
/// methods take `&self`.
#[derive(Debug)]
pub struct WorkloadRepo {
    enabled: AtomicBool,
    seq: AtomicU64,
    inner: Mutex<RepoInner>,
    /// Distinguishes slow dumps written within the same second.
    dump_seq: AtomicU64,
}

impl Default for WorkloadRepo {
    fn default() -> Self {
        WorkloadRepo::new(WorkloadConfig::default())
    }
}

impl WorkloadRepo {
    /// A repository with the given configuration.
    pub fn new(cfg: WorkloadConfig) -> WorkloadRepo {
        WorkloadRepo {
            enabled: AtomicBool::new(cfg.enabled),
            seq: AtomicU64::new(0),
            inner: Mutex::new(RepoInner { cfg, ..RepoInner::default() }),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// A repository configured from the environment.
    pub fn from_env() -> WorkloadRepo {
        WorkloadRepo::new(WorkloadConfig::from_env())
    }

    /// Whether recording is on — one relaxed load, the only cost a disabled
    /// repository imposes per statement.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Current configuration.
    pub fn config(&self) -> WorkloadConfig {
        self.inner.lock().cfg.clone()
    }

    /// Replaces the configuration (the `enabled` field also updates the
    /// fast-path flag).
    pub fn set_config(&self, cfg: WorkloadConfig) {
        self.enabled.store(cfg.enabled, Ordering::Relaxed);
        self.inner.lock().cfg = cfg;
    }

    /// Folds one executed statement into its fingerprint entry. Returns a
    /// ticket when the statement should additionally be captured into the
    /// slow ring (latency threshold crossed or sampler fired); the caller
    /// renders the plan and completes the capture with [`record_slow`].
    ///
    /// [`record_slow`]: WorkloadRepo::record_slow
    pub fn record(&self, sample: &ExecSample) -> Option<SlowTicket> {
        if !self.enabled() {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.lock();
        let max = inner.cfg.max_statements.max(1);
        let known = inner.map.contains_key(&sample.fingerprint);
        let key = if known || inner.map.len() < max {
            sample.fingerprint
        } else {
            // Registry full: conserve calls by folding into the catch-all.
            inner.map.entry(0).or_insert_with(|| Entry::new(OVERFLOW_TEXT.to_string()));
            inner.overflowed += 1;
            0
        };
        inner.map.entry(key).or_insert_with(|| Entry::new(sample.text.clone())).fold(sample);
        let cause = if sample.nanos >= inner.cfg.slow_nanos {
            Some(SlowCause::Threshold)
        } else if inner.cfg.sample_every > 0 && seq.is_multiple_of(inner.cfg.sample_every) {
            Some(SlowCause::Sampled)
        } else {
            None
        };
        cause.map(|cause| SlowTicket { seq, cause })
    }

    /// Completes a capture started by [`WorkloadRepo::record`]: pushes the
    /// query into the bounded slow ring, evicting the oldest entry when
    /// full.
    pub fn record_slow(&self, query: SlowQuery) {
        let mut inner = self.inner.lock();
        let max = inner.cfg.max_slow.max(1);
        while inner.slow.len() >= max {
            inner.slow.pop_front();
            inner.slow_evicted += 1;
        }
        inner.slow.push_back(query);
    }

    /// Per-fingerprint statistics, heaviest (by total latency) first, text
    /// as the tiebreak — the row source for `orion.statements`.
    pub fn statements(&self) -> Vec<StatementStats> {
        let inner = self.inner.lock();
        let mut out: Vec<StatementStats> = inner.map.iter().map(|(&fp, e)| e.stats(fp)).collect();
        out.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then_with(|| a.text.cmp(&b.text)));
        out
    }

    /// The slow ring, oldest first — the row source for
    /// `orion.slow_queries`.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.inner.lock().slow.iter().cloned().collect()
    }

    /// Sum of `calls` across every entry (conservation invariant: equals the
    /// number of statements recorded while enabled).
    pub fn total_calls(&self) -> u64 {
        self.inner.lock().map.values().map(|e| e.calls).sum()
    }

    /// Distinct fingerprints folded into the overflow entry so far.
    pub fn overflowed(&self) -> u64 {
        self.inner.lock().overflowed
    }

    /// Clears statistics, the slow ring and the sequence counter (the
    /// configuration and enabled flag are untouched).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.slow.clear();
        inner.overflowed = 0;
        inner.slow_evicted = 0;
        self.seq.store(0, Ordering::Relaxed);
    }

    /// JSON form of the per-statement counters with their latency
    /// histograms (the slow ring is dumped by
    /// [`WorkloadRepo::dump_slow_to_dir`]).
    pub fn to_json(&self) -> json::Value {
        let mut statements = json::Value::array();
        for s in self.statements() {
            statements.push(
                json::Value::object()
                    .with("fingerprint", format!("{:016x}", s.fingerprint))
                    .with("text", s.text.as_str())
                    .with("calls", s.calls)
                    .with("errors", s.errors)
                    .with("rows", s.rows)
                    .with("total_nanos", s.total_nanos)
                    .with("pages_read", s.pages_read)
                    .with("pdf_ops", s.pdf_ops)
                    .with("index_probes", s.index_probes)
                    .with("txn_retries", s.txn_retries)
                    .with("latency", s.latency.to_json()),
            );
        }
        let inner = self.inner.lock();
        json::Value::object()
            .with("seq", self.seq.load(Ordering::Relaxed))
            .with("overflowed", inner.overflowed)
            .with("statements", statements)
    }

    /// Dumps the slow ring into `dir` as `slow-<epoch-secs>-<seq>.json`, a
    /// document [`validate_slow_dump`] accepts.
    pub fn dump_slow_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let mut queries = json::Value::array();
        for q in self.slow_queries() {
            queries.push(
                json::Value::object()
                    .with("seq", q.seq)
                    .with("fingerprint", format!("{:016x}", q.fingerprint))
                    .with("text", q.text.as_str())
                    .with("nanos", q.nanos)
                    .with("rows", q.rows)
                    .with("cause", q.cause.as_str())
                    .with("plan", q.plan.as_str()),
            );
        }
        let inner = self.inner.lock();
        let doc = json::Value::object()
            .with("kind", "slow_queries")
            .with("evicted", inner.slow_evicted)
            .with("queries", queries);
        drop(inner);
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("slow-{secs}-{seq}.json"));
        std::fs::create_dir_all(dir)?;
        std::fs::write(&path, doc.to_string_pretty())?;
        Ok(path)
    }
}

/// Validates a slow-query dump written by [`WorkloadRepo::dump_slow_to_dir`]
/// (the `trace_check` tool dispatches here on `"kind": "slow_queries"`).
/// Returns the number of captured queries.
pub fn validate_slow_dump(doc: &json::Value) -> Result<usize, String> {
    if doc.get("kind").and_then(json::Value::as_str) != Some("slow_queries") {
        return Err("not a slow-query dump: missing kind=slow_queries".to_string());
    }
    doc.get("evicted").and_then(json::Value::as_u64).ok_or("missing evicted counter")?;
    let queries =
        doc.get("queries").and_then(json::Value::as_array).ok_or("missing queries array")?;
    let mut seqs = HashSet::new();
    for (i, q) in queries.iter().enumerate() {
        let seq = q
            .get("seq")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("query {i}: missing seq"))?;
        if !seqs.insert(seq) {
            return Err(format!("query {i}: duplicate seq {seq}"));
        }
        let fp = q
            .get("fingerprint")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("query {i}: missing fingerprint"))?;
        if fp.len() != 16 || !fp.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!("query {i}: fingerprint {fp:?} is not 16 hex digits"));
        }
        if q.get("text").and_then(json::Value::as_str).is_none_or(str::is_empty) {
            return Err(format!("query {i}: missing statement text"));
        }
        q.get("nanos")
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("query {i}: missing nanos"))?;
        match q.get("cause").and_then(json::Value::as_str) {
            Some("slow") | Some("sampled") => {}
            other => return Err(format!("query {i}: bad cause {other:?}")),
        }
        if q.get("plan").and_then(json::Value::as_str).is_none() {
            return Err(format!("query {i}: missing plan"));
        }
    }
    Ok(queries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(fp: u64, text: &str, nanos: u64) -> ExecSample {
        ExecSample { fingerprint: fp, text: text.to_string(), nanos, rows: 1, ..Default::default() }
    }

    #[test]
    fn record_accumulates_per_fingerprint() {
        let repo = WorkloadRepo::default();
        assert!(repo.record(&sample(7, "SELECT ?", 100)).is_none());
        repo.record(&ExecSample { error: true, txn_retries: 2, ..sample(7, "SELECT ?", 300) });
        repo.record(&sample(9, "INSERT ?", 50));
        let stats = repo.statements();
        assert_eq!(stats.len(), 2);
        // Heaviest first: fingerprint 7 carries 400ns total.
        assert_eq!(stats[0].fingerprint, 7);
        assert_eq!(stats[0].calls, 2);
        assert_eq!(stats[0].errors, 1);
        assert_eq!(stats[0].txn_retries, 2);
        assert_eq!(stats[0].total_nanos, 400);
        assert_eq!(stats[0].latency.count, 2);
        assert_eq!(repo.total_calls(), 3);
    }

    #[test]
    fn disabled_repo_records_nothing() {
        let repo = WorkloadRepo::default();
        repo.set_enabled(false);
        assert!(repo.record(&sample(1, "SELECT ?", u64::MAX)).is_none());
        assert!(repo.statements().is_empty());
    }

    #[test]
    fn overflow_folds_into_catchall_and_conserves_calls() {
        let cfg = WorkloadConfig { max_statements: 2, ..WorkloadConfig::default() };
        let repo = WorkloadRepo::new(cfg);
        for fp in 1..=5u64 {
            repo.record(&sample(fp, "S", 10));
        }
        repo.record(&sample(1, "S", 10));
        assert_eq!(repo.total_calls(), 6);
        assert_eq!(repo.overflowed(), 3);
        let stats = repo.statements();
        assert!(stats.iter().any(|s| s.fingerprint == 0 && s.text == OVERFLOW_TEXT));
    }

    #[test]
    fn slow_threshold_and_sampler_issue_tickets() {
        let cfg =
            WorkloadConfig { slow_nanos: 1_000, sample_every: 3, ..WorkloadConfig::default() };
        let repo = WorkloadRepo::new(cfg);
        let t = repo.record(&sample(1, "S", 5_000)).expect("over threshold");
        assert_eq!(t.cause, SlowCause::Threshold);
        assert!(repo.record(&sample(1, "S", 10)).is_none());
        // Third statement: the 1-in-3 sampler fires.
        let t = repo.record(&sample(1, "S", 10)).expect("sampled");
        assert_eq!(t.cause, SlowCause::Sampled);
    }

    #[test]
    fn slow_ring_bounds_and_dump_validates() {
        let cfg = WorkloadConfig { slow_nanos: 0, max_slow: 2, ..WorkloadConfig::default() };
        let repo = WorkloadRepo::new(cfg);
        for i in 0..4u64 {
            let t = repo.record(&sample(i + 1, "SELECT ?", 100)).expect("everything is slow");
            repo.record_slow(SlowQuery {
                seq: t.seq,
                fingerprint: i + 1,
                text: "SELECT ?".to_string(),
                nanos: 100,
                rows: 0,
                cause: t.cause,
                plan: "Scan t\n  paths: scan*".to_string(),
            });
        }
        let ring = repo.slow_queries();
        assert_eq!(ring.len(), 2);
        assert_eq!(ring[0].seq, 3, "oldest two evicted");

        let dir = crate::scratch_dir("obs-workload");
        let path = repo.dump_slow_to_dir(&dir).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(validate_slow_dump(&doc).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_rejects_malformed_dumps() {
        let not_slow = json::Value::object().with("reason", "panic");
        assert!(validate_slow_dump(&not_slow).is_err());
        let bad_cause = json::Value::object()
            .with("kind", "slow_queries")
            .with("evicted", 0u64)
            .with("queries", {
                let mut a = json::Value::array();
                a.push(
                    json::Value::object()
                        .with("seq", 1u64)
                        .with("fingerprint", "00000000000000aa")
                        .with("text", "SELECT ?")
                        .with("nanos", 5u64)
                        .with("cause", "eh")
                        .with("plan", ""),
                );
                a
            });
        assert!(validate_slow_dump(&bad_cause).unwrap_err().contains("bad cause"));
    }

    #[test]
    fn config_from_env_defaults() {
        // Only assert the defaults: the test process env may carry knobs.
        let cfg = WorkloadConfig::default();
        assert!(cfg.enabled);
        assert_eq!(cfg.slow_nanos, u64::MAX);
        assert_eq!(cfg.sample_every, 0);
    }
}

//! The traced pass: per-layer numbers measured from outside the engine.
//!
//! A fixed list of the workload's statements is replayed; each is run whole
//! through `execute` inside a `stmt` span, and again decomposed, every piece
//! wrapped in a span of its own. Because the pieces are called from outside
//! rather than nested inside `execute`, a parent's self time is its duration
//! minus the separately measured children on the same inputs.
//!
//! Every layer is measured on every workload's data. Where a layer is a
//! piece of the workload's own statement its number comes from the `pieces`
//! spans (and enters `bench.trace_coverage`); otherwise it comes from a
//! stand-alone probe of that layer on the same tables, so that, say,
//! `core.txn_begin_ms` on `point_read` says what a write would pay there.

use crate::gen::{Gauss, Points, Rng};
use crate::harness::{self, Observed, RunConfig};
use crate::seam::{self, json, Failure, Session, Timed, WalProbe};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::workloads::{check, Data, Expect, Op, Query, TxnOp, Workload, INSERT_KEY_BASE};
use std::collections::HashMap;
use std::ffi::OsString;
use std::path::Path;
use std::time::{Instant, SystemTime};

/// Every `SAMPLE_EVERY`-th statement of the workload's sequence is traced.
const SAMPLE_EVERY: usize = 5;
/// Statements in the traced list; the list is cycled while time remains.
const LIST_LEN: usize = 40;
/// The count metrics are taken over the first `EXACT_WINDOW` statements,
/// which every pass traces however slow the host is, so that they repeat
/// exactly from run to run on the single-client workloads.
const EXACT_WINDOW: usize = 16;
/// Share of `--seconds` the statement loop may use; the rest is for probes.
const LOOP_SHARE: f64 = 0.55;
/// Indexed-vs-unindexed statement pairs.
const INDEX_PAIRS: usize = 12;
/// Repetitions of each stand-alone probe.
const PROBES: usize = 20;
/// Side length of the continuous-pair join (40 x 40 = 1600 pairs).
const CONTINUOUS_SIDE: usize = 40;

/// One traced statement: a read, an autocommit write, or a transaction.
enum Sampled {
    Read(Op),
    Write(Op),
    Txn(Box<TxnOp>),
}

impl Sampled {
    fn list(w: Workload, data: &Data, seed: u64) -> Vec<Sampled> {
        let n = LIST_LEN * SAMPLE_EVERY;
        if w == Workload::TxnMix {
            // sampled and replayed transactions skip updates the full sequence
            // would have applied, so only the key of the SELECT is checked
            data.txn_ops(seed, 0, 0, n)
                .into_iter()
                .step_by(SAMPLE_EVERY)
                .map(|mut t| {
                    if let Expect::PointRow { pdf, .. } = &mut t.select.expect {
                        *pdf = None;
                    }
                    Sampled::Txn(Box::new(t))
                })
                .collect()
        } else {
            data.ops(w, seed, 0, n)
                .into_iter()
                .step_by(SAMPLE_EVERY)
                .map(|op| if op.query.is_some() { Sampled::Read(op) } else { Sampled::Write(op) })
                .collect()
        }
    }

    fn query(&self) -> Option<&Query> {
        match self {
            Sampled::Read(op) => op.query.as_ref(),
            Sampled::Write(_) => None,
            Sampled::Txn(t) => t.select.query.as_ref(),
        }
    }
}

/// Runs the statement whole, as a client would; `Err` carries what failed.
fn run_whole(s: &mut Session, sample: &Sampled) -> Result<(), String> {
    match sample {
        Sampled::Read(op) | Sampled::Write(op) => {
            let reply = s.run(&op.sql).map_err(|e| e.to_string())?;
            check(&op.expect, &reply)
        }
        Sampled::Txn(t) => {
            let mut wrong = Vec::new();
            match harness::run_txn(s, t, &mut wrong) {
                harness::TxnEnd::Committed { .. } => wrong.into_iter().next().map_or(Ok(()), Err),
                harness::TxnEnd::GaveUp { retries } => {
                    Err(format!("gave up after {retries} retries"))
                }
                harness::TxnEnd::Broken(why) => Err(why),
            }
        }
    }
}

/// What every statement pays first: parse and fingerprint.
fn parse_pieces(t: &mut Tracer, stmt: u64, parent: usize, sql: &str) -> Result<(), Failure> {
    let (_, parsed) = t.span("sql.parse", stmt, Some(parent), |_, _| seam::parse_sql(sql));
    let parsed = parsed?;
    t.span("sql.fingerprint", stmt, Some(parent), |_, _| seam::fingerprint_of(&parsed));
    Ok(())
}

/// The pieces of a read: parse, fingerprint, the per-statement copy, the
/// statement on that copy, rendering, and dropping the copy. Returns the
/// tuples the copy cloned.
fn read_pieces(
    t: &mut Tracer,
    stmt: u64,
    parent: usize,
    s: &Session,
    sql: &str,
) -> Result<usize, Failure> {
    parse_pieces(t, stmt, parent, sql)?;
    let (_, mut snap) = t.span("core.snapshot", stmt, Some(parent), |_, _| s.snapshot());
    let tuples = snap.tuples;
    let (_, out) = t.span("sql.exec", stmt, Some(parent), |_, _| snap.exec(sql));
    let out = out?;
    let (_, text) = t.span("sql.render", stmt, Some(parent), |_, _| out.render());
    text?;
    t.span("core.snapshot_drop", stmt, Some(parent), |_, _| {
        drop(out);
        drop(snap);
    });
    Ok(tuples)
}

/// The pieces of a write, each a statement of its own through the session:
/// `BEGIN` is `Txn::begin`, the DML stages, `COMMIT` validates, appends to
/// the WAL and waits for the fsync. A transaction's SELECT, if any, is
/// decomposed like a read in between; its copy's tuple count is returned.
fn write_pieces(
    t: &mut Tracer,
    stmt: u64,
    parent: usize,
    s: &mut Session,
    select: Option<&str>,
    dml: &[&str],
) -> Result<Option<usize>, Failure> {
    t.span("core.txn_begin", stmt, Some(parent), |_, _| s.run("BEGIN")).1?;
    let tuples = select.map(|sql| read_pieces(t, stmt, parent, s, sql)).transpose()?;
    for sql in dml {
        t.span("core.txn_stage", stmt, Some(parent), |_, _| s.run(sql)).1?;
    }
    t.span("core.txn_commit", stmt, Some(parent), |_, _| s.run("COMMIT")).1?;
    Ok(tuples)
}

/// Per-statement numbers the span list does not carry.
#[derive(Default)]
struct PerStatement {
    untraced_s: Vec<f64>,
    repo_off_s: Vec<f64>,
    stmt_s: Vec<f64>,
    pieces_s: Vec<f64>,
    snapshot_tuples: Vec<f64>,
    rows_examined_per_row: Vec<f64>,
    pdf_ops: Vec<f64>,
    pages_read: Vec<f64>,
    kernel_batch_s: Vec<f64>,
    kernel_calls: Vec<f64>,
    operators_self_s: Vec<f64>,
}

pub struct Layers {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every per-layer metric, in the order of `BENCHMARK.json`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// How many statements and probes stand behind the medians.
    pub counts: json::Value,
}

/// A scratch row for the probe table, keyed above everything else.
fn probe_insert(w: Workload, rng: &mut Rng, i: usize) -> String {
    let (table, _) = w.probe_column();
    let key = 9 * INSERT_KEY_BASE + i as i64;
    if w == Workload::HistoryJoin {
        format!("INSERT INTO {table} VALUES ({key}, {})", Points::draw(rng, 4, 0.0, 10.0).sql())
    } else {
        format!("INSERT INTO {table} VALUES ({key}, {})", Gauss::draw(rng).sql())
    }
}

/// A low-selectivity threshold statement on the probe column, for the
/// indexed-vs-scan comparison (the workload's own statement where it has one).
fn probe_threshold(w: Workload, rng: &mut Rng) -> (String, f64) {
    let (table, column) = w.probe_column();
    let key = w.tables().iter().find(|(t, _)| *t == table).expect("probe table is listed").1;
    let c = crate::gen::round_to(
        if w == Workload::HistoryJoin { rng.uniform(3.5, 4.5) } else { rng.uniform(2.0, 8.0) },
        3,
    );
    (format!("SELECT {key} FROM {table} WHERE PROB({column} < {c}) > 0.9"), c)
}

/// Median over the first [`EXACT_WINDOW`] statements.
fn exact(per_statement: &[f64]) -> f64 {
    median(&per_statement[..per_statement.len().min(EXACT_WINDOW)])
}

fn ms(secs: &[f64]) -> f64 {
    median(secs) * 1e3
}

fn us(secs: &[f64]) -> f64 {
    median(secs) * 1e6
}

/// Median of the `pieces` spans called `name`, else of the probes.
fn layer_secs(t: &Tracer, name: &str) -> Vec<f64> {
    let of = |want: &str| -> Vec<f64> {
        t.spans
            .iter()
            .enumerate()
            .filter(|(id, s)| s.name == name && t.spans[t.root(*id)].name == want)
            .map(|(_, s)| s.nanos() as f64 / 1e9)
            .collect()
    };
    let own = of("pieces");
    if own.is_empty() {
        of("probe")
    } else {
        own
    }
}

/// Length and modification time of every file in `dir`.
fn file_states(dir: &Path) -> std::io::Result<HashMap<OsString, (u64, SystemTime)>> {
    let mut states = HashMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_file() {
            states.insert(entry.file_name(), (meta.len(), meta.modified()?));
        }
    }
    Ok(states)
}

/// Bytes of the files that are new or changed since `before`.
fn bytes_rewritten(
    dir: &Path,
    before: &HashMap<OsString, (u64, SystemTime)>,
) -> std::io::Result<u64> {
    let after = file_states(dir)?;
    Ok(after
        .iter()
        .filter(|(name, state)| before.get(*name) != Some(state))
        .map(|(_, s)| s.0)
        .sum())
}

pub fn run(cfg: &RunConfig, trace_file: &Path) -> Result<Layers, Failure> {
    let w = cfg.workload;
    let data = Data::generate(w, cfg.seed, cfg.scale);
    let mut setup = Observed::default();
    let template = harness::build_template(cfg, &data, &mut setup)?;
    let live_dir = cfg.data_dir.join("live");
    let alt_dir = cfg.data_dir.join("alt");
    harness::copy_dir(&template.dir, &live_dir).map_err(harness::io_failure)?;
    harness::copy_dir(&template.dir, &alt_dir).map_err(harness::io_failure)?;
    let mut s = Session::open(&live_dir)?;
    let mut alt = Session::open(&alt_dir)?;
    let (probe_table, probe_col) = w.probe_column();

    let mut t = Tracer::new();
    let mut per = PerStatement::default();
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut rng = Rng::new(cfg.seed, 0x9806E);
    let rows = cfg.scale.rows(w) as u64;

    // -- the statement loop ------------------------------------------------
    let list = Sampled::list(w, &data, cfg.seed);
    let loop_started = Instant::now();
    let before_loop = s.counters();
    let mut after_window = before_loop;
    let mut stmt = 0u64;
    'cycles: loop {
        for sample in &list {
            if stmt >= EXACT_WINDOW as u64
                && loop_started.elapsed().as_secs_f64() >= cfg.seconds * LOOP_SHARE
            {
                break 'cycles;
            }
            if stmt == EXACT_WINDOW as u64 {
                after_window = s.counters();
            }
            stmt += 1;
            attempted += 1;
            // whole, untraced and traced, back to back so drift hits both alike
            let (whole, r) = Timed::of(|| run_whole(&mut s, sample));
            per.untraced_s.push(whole.secs());
            failures.extend(r.err());
            let before = s.counters();
            let (id, r) = t.span("stmt", stmt, None, |_, _| run_whole(&mut s, sample));
            per.stmt_s.push(t.spans[id].nanos() as f64 / 1e9);
            failures.extend(r.err());
            let after = s.counters();
            let calls = (after.statement_calls - before.statement_calls).max(1) as f64;
            per.pdf_ops.push((after.statement_pdf_ops - before.statement_pdf_ops) as f64 / calls);
            per.pages_read.push((after.pages_read - before.pages_read) as f64);

            // the same statement with the statement repository off
            s.set_statement_repository(false);
            let (whole, r) = Timed::of(|| run_whole(&mut s, sample));
            s.set_statement_repository(true);
            per.repo_off_s.push(whole.secs());
            failures.extend(r.err());

            // decomposed
            let (id, r) = t.span("pieces", stmt, None, |t, me| -> Result<Option<usize>, Failure> {
                match sample {
                    Sampled::Read(op) => read_pieces(t, stmt, me, &s, &op.sql).map(Some),
                    Sampled::Write(op) => {
                        parse_pieces(t, stmt, me, &op.sql)?;
                        write_pieces(t, stmt, me, &mut s, None, &[&op.sql])
                    }
                    Sampled::Txn(txn) => write_pieces(
                        t,
                        stmt,
                        me,
                        &mut s,
                        Some(&txn.select.sql),
                        &[&txn.update.sql, &txn.insert.sql],
                    ),
                }
            });
            let mut snapshot_tuples = r?;
            let children: u64 =
                t.spans.iter().filter(|c| c.parent == Some(id)).map(|c| c.nanos()).sum();
            per.pieces_s.push(children as f64 / 1e9);

            // the layers under `sql.exec`, on the same inputs
            let probe_query;
            let (q, track) = match sample.query() {
                Some(q) => (q, "pieces"),
                None => {
                    probe_query = Query::Point { table: "readings", key: rng.below(rows) as i64 };
                    (&probe_query, "probe")
                }
            };
            let (under, _) = t.span(track, stmt, None, |_, _| ());
            let planned = s.time_plan_and_operators(q)?;
            t.record("core.plan", stmt, Some(under), planned.plan);
            t.record("core.operators", stmt, Some(under), planned.operators);
            let (scalar, batch, calls) = s.time_kernels(q, planned.mask.as_deref())?;
            t.record("pdf.kernel", stmt, Some(under), scalar);
            per.kernel_batch_s.push(batch.secs());
            per.kernel_calls.push(calls as f64);
            per.operators_self_s.push(planned.operators.secs() - scalar.secs());
            per.rows_examined_per_row.push(planned.examined as f64 / planned.rows.max(1) as f64);
            if sample.query().is_none() {
                // a write workload: the read side of the same table, as a probe
                let (_, tuples) =
                    t.span("probe", stmt, None, |t, me| read_pieces(t, stmt, me, &s, &q.sql()));
                snapshot_tuples = Some(tuples?);
            }
            per.snapshot_tuples.push(snapshot_tuples.unwrap_or(0) as f64);
        }
    }
    if stmt <= EXACT_WINDOW as u64 {
        after_window = s.counters();
    }

    // -- indexed against un-indexed, same data, same statements --------------
    // (a stream of its own: the loop above drew a time-dependent number of values)
    let mut probe_rng = Rng::new(cfg.seed, 0x1DE);
    let (mut indexed_s, mut plain_s) = (Vec::new(), Vec::new());
    if w == Workload::IndexedThreshold {
        alt.run("DROP INDEX ix_value")?;
    } else {
        alt.run(&format!("CREATE INDEX ix_probe ON {probe_table} ({probe_col}) USING cdf"))?;
    }
    for i in 0..INDEX_PAIRS {
        let sql = match list.get(i) {
            Some(Sampled::Read(op)) if w == Workload::IndexedThreshold => op.sql.clone(),
            _ => probe_threshold(w, &mut probe_rng).0,
        };
        let (with_ix, without) =
            if w == Workload::IndexedThreshold { (&mut s, &mut alt) } else { (&mut alt, &mut s) };
        let (a, ra) = Timed::of(|| with_ix.run(&sql).map(|r| r.rows()));
        let (b, rb) = Timed::of(|| without.run(&sql).map(|r| r.rows()));
        attempted += 1;
        // the write workloads have by now inserted into `s` only
        if ra? != rb? && w.read_only() {
            failures.push(format!("indexed and un-indexed answers differ: {sql}"));
        }
        indexed_s.push(a.secs());
        plain_s.push(b.secs());
    }

    // -- stand-alone probes ------------------------------------------------------
    // (the write workloads' own pieces already cover the transaction layers)
    let before_writes = alt.counters();
    if w.read_only() {
        for i in 0..PROBES {
            let sql = probe_insert(w, &mut probe_rng, i);
            t.span("probe", 0, None, |t, me| write_pieces(t, 0, me, &mut alt, None, &[&sql])).1?;
        }
    }
    let after_writes = alt.counters();

    let (mut build_s, mut probe_s, mut pruned) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (built, index) = s.time_index_build(probe_table, probe_col)?;
        build_s.push(built.secs());
        for _ in 0..PROBES / 3 + 1 {
            let c = probe_threshold(w, &mut probe_rng).1;
            let (probed, share) = index.time_probe(f64::NEG_INFINITY, c, 0.9)?;
            probe_s.push(probed.secs());
            pruned.push(share);
        }
    }
    let (encode_ns, decode_ns) = s.time_codec(probe_table, probe_col)?;

    // WAL deltas: a concurrent burst for txn_mix, the writes above otherwise
    let (wal, conflict_retries, gave_up) = if w == Workload::TxnMix {
        // on a fresh copy: the statement loop has rewritten rows of `live`
        let burst_dir = cfg.data_dir.join("burst");
        harness::copy_dir(&template.dir, &burst_dir).map_err(harness::io_failure)?;
        let fresh = Session::open(&burst_dir)?;
        let before = fresh.counters();
        let mut burst = Observed::default();
        harness::txn_round(cfg, &data, 1, &fresh, &mut burst);
        attempted += burst.attempted;
        failures.extend(burst.failures);
        let after = fresh.counters();
        let retries =
            burst.txn_retries + (after.statement_txn_retries - before.statement_txn_retries);
        (delta(before, after), retries as f64, burst.txn_gave_up as f64)
    } else if w.read_only() {
        (delta(before_writes, after_writes), 0.0, 0.0)
    } else {
        (delta(before_loop, after_window), 0.0, 0.0)
    };

    let side = (CONTINUOUS_SIDE / cfg.scale.0.min(4)).max(4);
    let continuous = seam::time_continuous_join(side)?;
    let payload = vec![0xA5u8; (wal.bytes_per_commit as usize).clamp(64, 1 << 20)];
    let (mut append_s, mut fsync_s) = (Vec::new(), Vec::new());
    {
        let mut log = WalProbe::open(&live_dir.join("probe.wal")).map_err(harness::io_failure)?;
        for _ in 0..PROBES {
            let (a, f) = log.append_sync(&payload).map_err(harness::io_failure)?;
            append_s.push(a.secs());
            fsync_s.push(f.secs());
        }
    }
    std::fs::remove_file(live_dir.join("probe.wal")).map_err(harness::io_failure)?;

    // crash, recover (engine only), checkpoint
    drop(s);
    let mut recover_s = Vec::new();
    for _ in 0..3 {
        recover_s.push(seam::time_engine_open(&live_dir)?.secs());
    }
    let s = Session::open(&live_dir)?;
    let before = file_states(&live_dir).map_err(harness::io_failure)?;
    s.checkpoint()?;
    let checkpoint_bytes = bytes_rewritten(&live_dir, &before).map_err(harness::io_failure)?;
    drop(s);
    drop(alt);

    // -- assemble ----------------------------------------------------------------
    let stmt_p50 = median(&per.stmt_s);
    let untraced_p50 = median(&per.untraced_s);
    let other: Vec<f64> = per.stmt_s.iter().zip(&per.pieces_s).map(|(a, b)| a - b).collect();
    let share = |a: f64, b: f64| if b > 0.0 { (a - b) / b } else { 0.0 };
    let kernel_s = layer_secs(&t, "pdf.kernel");
    let kernel_calls = exact(&per.kernel_calls);
    let metrics = vec![
        ("sql.parse_us", us(&layer_secs(&t, "sql.parse")), "us"),
        ("sql.fingerprint_us", us(&layer_secs(&t, "sql.fingerprint")), "us"),
        ("sql.exec_ms", ms(&layer_secs(&t, "sql.exec")), "ms"),
        ("sql.render_ms", ms(&layer_secs(&t, "sql.render")), "ms"),
        ("sql.session_other_ms", ms(&other), "ms"),
        ("sql.session.p99_ms", percentile(&sorted(per.untraced_s.clone()), 0.99) * 1e3, "ms"),
        ("core.snapshot_ms", ms(&layer_secs(&t, "core.snapshot")), "ms"),
        ("core.snapshot_drop_ms", ms(&layer_secs(&t, "core.snapshot_drop")), "ms"),
        ("core.snapshot_tuples", exact(&per.snapshot_tuples), "count"),
        ("core.txn_begin_ms", ms(&layer_secs(&t, "core.txn_begin")), "ms"),
        ("core.txn_stage_ms", ms(&layer_secs(&t, "core.txn_stage")), "ms"),
        ("core.txn_commit_ms", ms(&layer_secs(&t, "core.txn_commit")), "ms"),
        ("core.txn_conflict_retries", conflict_retries, "count"),
        ("core.txn_gave_up", gave_up, "count"),
        ("core.plan_us", us(&layer_secs(&t, "core.plan")), "us"),
        ("core.operators_ms", ms(&layer_secs(&t, "core.operators")), "ms"),
        ("core.operators_self_ms", ms(&per.operators_self_s), "ms"),
        ("core.rows_examined_per_row", exact(&per.rows_examined_per_row), "ratio"),
        ("core.index_build_ms", ms(&build_s), "ms"),
        ("core.index_probe_ms", ms(&probe_s), "ms"),
        ("core.index_pruned_share", median(&pruned), "ratio"),
        ("core.index_speedup_vs_scan", median(&plain_s) / median(&indexed_s).max(1e-12), "ratio"),
        ("core.recover_ms", ms(&recover_s), "ms"),
        ("core.checkpoint_bytes", checkpoint_bytes as f64, "bytes"),
        ("pdf.kernel_ms", ms(&kernel_s), "ms"),
        ("pdf.kernel_batch_ms", ms(&per.kernel_batch_s), "ms"),
        ("pdf.ops_per_stmt", exact(&per.pdf_ops), "count"),
        ("pdf.ns_per_op", median(&kernel_s) * 1e9 / kernel_calls.max(1.0), "ns"),
        ("pdf.continuous_pair_us", continuous.secs() * 1e6 / (side * side) as f64, "us"),
        ("storage.wal_append_us", us(&append_s), "us"),
        ("storage.wal_fsync_us", us(&fsync_s), "us"),
        ("storage.wal_fsyncs_per_commit", wal.fsyncs_per_commit, "ratio"),
        ("storage.wal_fsyncs_saved_share", wal.fsyncs_saved_share, "ratio"),
        ("storage.wal_bytes_per_commit", wal.bytes_per_commit, "bytes"),
        ("storage.codec_encode_ns_per_tuple", encode_ns, "ns"),
        ("storage.codec_decode_ns_per_tuple", decode_ns, "ns"),
        ("storage.pages_read_per_stmt", exact(&per.pages_read), "count"),
        ("obs.workload_overhead_share", share(untraced_p50, median(&per.repo_off_s)), "ratio"),
        ("bench.trace_overhead_share", share(stmt_p50, untraced_p50), "ratio"),
        ("bench.trace_coverage", median(&per.pieces_s) / stmt_p50.max(1e-12), "ratio"),
    ];
    let counts = json::Value::object()
        .with("traced_statements", stmt)
        .with("distinct_statements", list.len().min(stmt as usize) as u64)
        .with("index_pairs", INDEX_PAIRS as u64)
        .with("probe_repetitions", PROBES as u64)
        .with("continuous_pairs", (side * side) as u64)
        .with("spans", t.spans.len() as u64)
        .with("trace_file", trace_file.display().to_string());
    if let Some(parent) = trace_file.parent() {
        std::fs::create_dir_all(parent).map_err(harness::io_failure)?;
    }
    std::fs::write(trace_file, t.chrome_json(w.name()).to_string_compact())
        .map_err(harness::io_failure)?;
    let failed = failures.len() as u64;
    failures.truncate(8);
    Ok(Layers { attempted, failed, failures, metrics, counts })
}

/// Write-ahead-log ratios between two counter readings.
struct WalDelta {
    fsyncs_per_commit: f64,
    fsyncs_saved_share: f64,
    bytes_per_commit: f64,
}

fn delta(a: seam::Counters, b: seam::Counters) -> WalDelta {
    let commits = (b.commits - a.commits).max(1) as f64;
    let fsyncs = (b.fsyncs - a.fsyncs) as f64;
    let saved = (b.fsyncs_saved - a.fsyncs_saved) as f64;
    WalDelta {
        fsyncs_per_commit: fsyncs / commits,
        fsyncs_saved_share: saved / (fsyncs + saved).max(1.0),
        bytes_per_commit: b.wal_len.saturating_sub(a.wal_len) as f64 / commits,
    }
}

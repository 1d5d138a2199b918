//! The six workloads: what data each builds, which statements it replays,
//! and what every answer must be.
//!
//! Everything is derived from the seed before timing starts; the engine
//! only ever sees SQL text. Expected answers come from the generator's own
//! parameters through the closed forms in [`crate::gen`], never from the
//! engine under test.

use crate::gen::{batched_inserts, Gauss, Hist, JointPoints, Points, Rng};

/// Rows per multi-row `INSERT` during set-up.
const SETUP_BATCH: usize = 256;
/// Answers whose probability lies this close to the threshold may go either
/// way (the engine's cdf and ours differ in the last bits).
const TIE_BAND: f64 = 1e-9;
/// First key of rows inserted by the write workloads (above every seeded key).
pub const INSERT_KEY_BASE: i64 = 1_000_000;
/// `txn_mix`: rows every client may update, so commits can conflict.
pub const HOT_ROWS: i64 = 64;
/// `txn_mix`: chance that a transaction's UPDATE targets the hot set.
const HOT_SHARE: f64 = 0.2;
/// `txn_mix`: concurrent clients (the host has two cores; never more).
pub const TXN_CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    ThresholdScan,
    IndexedThreshold,
    HistoryJoin,
    AutocommitInsert,
    TxnMix,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PointRead,
        Workload::ThresholdScan,
        Workload::IndexedThreshold,
        Workload::HistoryJoin,
        Workload::AutocommitInsert,
        Workload::TxnMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::ThresholdScan => "threshold_scan",
            Workload::IndexedThreshold => "indexed_threshold",
            Workload::HistoryJoin => "history_join",
            Workload::AutocommitInsert => "autocommit_insert",
            Workload::TxnMix => "txn_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layer it stresses and which it
    /// bypasses (the longer form is in the README).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointRead => {
                "smallest useful statement on 20000 tuples: all cost beyond parse/plan is \
                 per-statement snapshot overhead; operators, pdf kernels and the WAL do almost nothing"
            }
            Workload::ThresholdScan => {
                "Fig. 5 shape: PROB(range) > 0.5 scans over 5000 tuples stored as symbolic, hist-5 \
                 and disc-25; operator and pdf-kernel bound, no index, transactions or WAL"
            }
            Workload::IndexedThreshold => {
                "same threshold operator through the cdf index on 20000 tuples at selectivity ~0.02; \
                 shows index build/probe cost, bypasses the scan path"
            }
            Workload::HistoryJoin => {
                "Fig. 6 shape: equi-join with an uncertain comparison, a floor on a correlated pair \
                 and a collapsing projection over 2 x 2000 4-point pdfs; pdf-bound, snapshot is small"
            }
            Workload::AutocommitInsert => {
                "durable-ack path on 20000 preloaded tuples: transaction snapshot, validation, WAL \
                 append and fsync per single-row INSERT; the write-side twin of point_read"
            }
            Workload::TxnMix => {
                "the only concurrent workload: 2 clients of BEGIN/SELECT/UPDATE/INSERT/COMMIT on 2000 \
                 tuples with a shared hot set; lock wait, first-committer-wins, group commit"
            }
        }
    }

    /// Seeded rows per table at full size.
    pub fn rows(self) -> usize {
        match self {
            Workload::PointRead | Workload::IndexedThreshold | Workload::AutocommitInsert => 20_000,
            Workload::ThresholdScan => 5_000,
            Workload::HistoryJoin | Workload::TxnMix => 2_000,
        }
    }

    /// Timed operations per round (per client for `txn_mix`), sized so one
    /// round measures about a second at the commit that defined the benchmark.
    pub fn round_ops(self) -> usize {
        match self {
            Workload::PointRead => 50,
            Workload::ThresholdScan => 45,
            Workload::IndexedThreshold => 30,
            Workload::HistoryJoin => 30,
            Workload::AutocommitInsert => 60,
            Workload::TxnMix => 150,
        }
    }

    /// Whether the workload's statements leave the tables as they found them.
    pub fn read_only(self) -> bool {
        !matches!(self, Workload::AutocommitInsert | Workload::TxnMix)
    }

    pub fn clients(self) -> usize {
        if self == Workload::TxnMix {
            TXN_CLIENTS
        } else {
            1
        }
    }

    /// `(table, key column)` of every table the workload owns; inserts go
    /// to the first.
    pub fn tables(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::ThresholdScan => &[("r_sym", "rid"), ("r_hist5", "rid"), ("r_disc25", "rid")],
            Workload::HistoryJoin => &[("b", "id"), ("t", "id")],
            _ => &[("readings", "rid")],
        }
    }

    /// The table and 1-D uncertain column the generic layer probes (index
    /// build, codec, kernels, a scratch insert) run against.
    pub fn probe_column(self) -> (&'static str, &'static str) {
        match self {
            Workload::ThresholdScan => ("r_sym", "value"),
            Workload::HistoryJoin => ("b", "y"),
            _ => ("readings", "value"),
        }
    }
}

/// How large a run is: `1` is the benchmark, `20` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale(pub usize);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const SMOKE: Scale = Scale(20);

    pub fn rows(self, w: Workload) -> usize {
        (w.rows() / self.0).max(HOT_ROWS as usize * 2)
    }
}

/// The seeded contents of a workload's tables (row `i` has key `i`).
#[derive(Debug, Clone, Default)]
pub struct Data {
    pub gauss: Vec<Gauss>,
    pub hist: Vec<Hist>,
    pub disc: Vec<Points>,
    pub joint: Vec<JointPoints>,
    pub ys: Vec<Points>,
}

impl Data {
    pub fn generate(w: Workload, seed: u64, scale: Scale) -> Data {
        let n = scale.rows(w);
        let mut rng = Rng::new(seed, 0xDA7A);
        let mut d = Data::default();
        match w {
            Workload::HistoryJoin => {
                d.joint = (0..n).map(|_| JointPoints::draw(&mut rng, 4)).collect();
                d.ys = (0..n).map(|_| Points::draw(&mut rng, 4, 0.0, 10.0)).collect();
            }
            _ => {
                d.gauss = (0..n).map(|_| Gauss::draw(&mut rng)).collect();
                if w == Workload::ThresholdScan {
                    d.hist = d.gauss.iter().map(|g| Hist::of(g, 5)).collect();
                    d.disc = d.gauss.iter().map(|g| Points::of(g, 25)).collect();
                }
            }
        }
        d
    }

    /// The statements that build the database, in order.
    pub fn setup_sql(&self, w: Workload) -> Vec<String> {
        let rows = |f: &dyn Fn(usize) -> String, n: usize| -> Vec<String> {
            (0..n).map(|i| format!("({i}, {})", f(i))).collect()
        };
        let n = self.gauss.len().max(self.joint.len());
        let mut sql = Vec::new();
        match w {
            Workload::ThresholdScan => {
                for (table, _) in w.tables() {
                    sql.push(format!("CREATE TABLE {table} (rid INT, value REAL UNCERTAIN)"));
                }
                sql.extend(batched_inserts(
                    "r_sym",
                    &rows(&|i| self.gauss[i].sql(), n),
                    SETUP_BATCH,
                ));
                sql.extend(batched_inserts(
                    "r_hist5",
                    &rows(&|i| self.hist[i].sql(), n),
                    SETUP_BATCH,
                ));
                sql.extend(batched_inserts(
                    "r_disc25",
                    &rows(&|i| self.disc[i].sql(), n),
                    SETUP_BATCH,
                ));
            }
            Workload::HistoryJoin => {
                sql.push(
                    "CREATE TABLE t (id INT, p REAL UNCERTAIN, q REAL UNCERTAIN, CORRELATED (p, q))"
                        .to_string(),
                );
                sql.push("CREATE TABLE b (id INT, y REAL UNCERTAIN)".to_string());
                sql.extend(batched_inserts("t", &rows(&|i| self.joint[i].sql(), n), SETUP_BATCH));
                sql.extend(batched_inserts("b", &rows(&|i| self.ys[i].sql(), n), SETUP_BATCH));
            }
            _ => {
                sql.push("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)".to_string());
                sql.extend(batched_inserts(
                    "readings",
                    &rows(&|i| self.gauss[i].sql(), n),
                    SETUP_BATCH,
                ));
                if w == Workload::IndexedThreshold {
                    sql.push("CREATE INDEX ix_value ON readings (value) USING cdf".to_string());
                }
            }
        }
        sql
    }
}

/// Bytes of statement text that carries user data (INSERT / UPDATE).
pub fn write_bytes(sql: &str) -> u64 {
    if sql.starts_with("INSERT") || sql.starts_with("UPDATE") {
        sql.len() as u64
    } else {
        0
    }
}

/// A read statement in structured form: the SQL text is rendered from it,
/// and the layer probes call the same operators with the same parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT <key>, <col> FROM <table> WHERE <key> = <k>`
    Point { table: &'static str, key: i64 },
    /// `SELECT rid FROM <table> WHERE PROB(value BETWEEN lo AND hi) > p`,
    /// or `PROB(value < hi) > p` when `lo` is `-inf`.
    Threshold { table: &'static str, lo: f64, hi: f64, p: f64 },
    /// `SELECT t.id, p FROM t JOIN b ON t.id = b.id AND p < y WHERE q > c`
    Join { c: f64 },
}

impl Query {
    pub fn sql(&self) -> String {
        match self {
            Query::Point { table, key } => {
                format!("SELECT rid, value FROM {table} WHERE rid = {key}")
            }
            Query::Threshold { table, lo, hi, p } if lo.is_finite() => {
                format!("SELECT rid FROM {table} WHERE PROB(value BETWEEN {lo} AND {hi}) > {p}")
            }
            Query::Threshold { table, hi, p, .. } => {
                format!("SELECT rid FROM {table} WHERE PROB(value < {hi}) > {p}")
            }
            Query::Join { c } => {
                format!("SELECT t.id, p FROM t JOIN b ON t.id = b.id AND p < y WHERE q > {c}")
            }
        }
    }
}

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Exactly one row with this key; the rendered pdf is `Gaus(mean,var)`
    /// with these parameters when they are known.
    PointRow { key: i64, pdf: Option<Gauss> },
    /// The returned keys, minus `maybe`, are exactly `must` (ascending).
    Keys { must: Vec<i64>, maybe: Vec<i64> },
    /// This many rows whose existence probabilities sum to `existence`.
    JoinRows { rows: usize, existence: f64 },
    /// A DML acknowledgement for this many tuples.
    Affected(usize),
}

/// One timed operation of a single-client workload.
#[derive(Debug, Clone)]
pub struct Op {
    pub sql: String,
    /// The structured form, for read statements.
    pub query: Option<Query>,
    pub expect: Expect,
    /// The key this statement inserts, if it is an INSERT.
    pub inserts: Option<i64>,
}

impl Op {
    fn read(q: Query, expect: Expect) -> Op {
        Op { sql: q.sql(), query: Some(q), expect, inserts: None }
    }
}

/// What the engine returned, reduced to what the checks read.
pub trait Answer {
    /// The rendered text (what a user sees).
    fn text(&self) -> &str;
    /// The integer column `col` of a relational answer.
    fn keys(&self, col: &str) -> Option<Vec<i64>>;
    /// Per-row existence probabilities of a relational answer.
    fn existence(&self) -> Option<Vec<f64>>;
    /// The count of a DML acknowledgement.
    fn affected(&self) -> Option<usize>;
    /// Whether the statement completed with nothing to return.
    fn is_done(&self) -> bool;
}

/// Parses the first `Gaus(mean,var)` cell of rendered output.
fn rendered_gaussian(text: &str) -> Option<Gauss> {
    let start = text.find("Gaus(")? + 5;
    let end = start + text[start..].find(')')?;
    let (m, v) = text[start..end].split_once(',')?;
    Some(Gauss { mean: m.trim().parse().ok()?, var: v.trim().parse().ok()? })
}

/// The key column of every answer whose keys are checked (`readings`, `r_*`).
const KEY_COLUMN: &str = "rid";

/// Checks one answer; `Err` says what was wrong.
pub fn check(expect: &Expect, got: &dyn Answer) -> Result<(), String> {
    match expect {
        Expect::PointRow { key, pdf } => {
            let keys = got.keys(KEY_COLUMN).ok_or("not a relational answer")?;
            if keys != [*key] {
                return Err(format!("expected the single row {key}, got {keys:?}"));
            }
            if let Some(want) = pdf {
                let seen = rendered_gaussian(got.text());
                if seen != Some(*want) {
                    return Err(format!("row {key}: rendered {seen:?}, inserted {want:?}"));
                }
            }
            Ok(())
        }
        Expect::Keys { must, maybe } => {
            let mut keys = got.keys(KEY_COLUMN).ok_or("not a relational answer")?;
            keys.retain(|k| maybe.binary_search(k).is_err());
            keys.sort_unstable();
            if &keys != must {
                let missing: Vec<&i64> =
                    must.iter().filter(|k| keys.binary_search(k).is_err()).take(3).collect();
                let extra: Vec<&i64> =
                    keys.iter().filter(|k| must.binary_search(k).is_err()).take(3).collect();
                return Err(format!(
                    "key set differs: {} returned, {} expected; missing {missing:?}, unexpected {extra:?}",
                    keys.len(),
                    must.len()
                ));
            }
            Ok(())
        }
        Expect::JoinRows { rows, existence } => {
            let ex = got.existence().ok_or("not a relational answer")?;
            let sum: f64 = ex.iter().sum();
            if ex.len() != *rows || (sum - existence).abs() > 1e-9 * (*rows as f64).max(1.0) {
                return Err(format!(
                    "join returned {} rows with existence {sum}, expected {rows} with {existence}",
                    ex.len()
                ));
            }
            Ok(())
        }
        Expect::Affected(n) => match got.affected() {
            Some(m) if m == *n => Ok(()),
            other => Err(format!("expected {n} tuple(s) affected, got {other:?}")),
        },
    }
}

/// Keys whose probability exceeds `p`, split into certain and too-close-to-call.
fn threshold_keys(probs: impl Iterator<Item = (usize, f64)>, p: f64) -> Expect {
    let mut must = Vec::new();
    let mut maybe = Vec::new();
    for (i, pr) in probs {
        if (pr - p).abs() <= TIE_BAND {
            maybe.push(i as i64);
        } else if pr > p {
            must.push(i as i64);
        }
    }
    Expect::Keys { must, maybe }
}

impl Data {
    /// The expected answer of a threshold query, from the closed forms.
    fn threshold_expect(&self, table: &str, lo: f64, hi: f64, p: f64) -> Expect {
        match table {
            "r_hist5" => {
                threshold_keys(self.hist.iter().map(|h| h.range_prob(lo, hi)).enumerate(), p)
            }
            "r_disc25" => {
                threshold_keys(self.disc.iter().map(|d| d.range_prob(lo, hi)).enumerate(), p)
            }
            // P >= 1/2 needs the mean inside [lo, hi]: skip the erf otherwise
            _ => threshold_keys(
                self.gauss
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| p < 0.5 || (g.mean >= lo && g.mean <= hi))
                    .map(|(i, g)| (i, g.range_prob(lo, hi))),
                p,
            ),
        }
    }

    /// Brute force over the 4 x 4 points of every id-matched pair:
    /// `Pr(p < y ∧ q > c)`, rows with zero probability do not appear.
    fn join_expect(&self, c: f64) -> Expect {
        let mut rows = 0;
        let mut existence = 0.0;
        for (j, ys) in self.joint.iter().zip(&self.ys) {
            let mut pr = 0.0;
            for &((p, q), w) in &j.0 {
                for &(y, wy) in &ys.0 {
                    if p < y && q > c {
                        pr += w * wy;
                    }
                }
            }
            if pr > 0.0 {
                rows += 1;
                existence += pr;
            }
        }
        Expect::JoinRows { rows, existence }
    }

    /// The `n` operations of round `round` for a single-client workload
    /// (`TxnMix` has its own generator, [`Data::txn_ops`]).
    pub fn ops(&self, w: Workload, seed: u64, round: u64, n: usize) -> Vec<Op> {
        let mut rng = Rng::new(seed, 0x0B5 + 0x1_0000 * (round + 1));
        let rows = self.gauss.len().max(self.joint.len()) as u64;
        (0..n)
            .map(|i| match w {
                Workload::PointRead => {
                    let key = rng.below(rows) as i64;
                    Op::read(
                        Query::Point { table: "readings", key },
                        Expect::PointRow { key, pdf: Some(self.gauss[key as usize]) },
                    )
                }
                Workload::ThresholdScan => {
                    // paper parameters: midpoints ~ U(0,100), lengths ~ N(10,3)
                    let table = w.tables()[i % 3].0;
                    let mid = rng.uniform(0.0, 100.0);
                    let len = rng.normal(10.0, 3.0).max(1.0);
                    let (lo, hi) = (
                        crate::gen::round_to(mid - len / 2.0, 3),
                        crate::gen::round_to(mid + len / 2.0, 3),
                    );
                    Op::read(
                        Query::Threshold { table, lo, hi, p: 0.5 },
                        self.threshold_expect(table, lo, hi, 0.5),
                    )
                }
                Workload::IndexedThreshold => {
                    let hi = crate::gen::round_to(rng.uniform(2.0, 8.0), 3);
                    let lo = f64::NEG_INFINITY;
                    Op::read(
                        Query::Threshold { table: "readings", lo, hi, p: 0.9 },
                        self.threshold_expect("readings", lo, hi, 0.9),
                    )
                }
                Workload::HistoryJoin => {
                    let c = crate::gen::round_to(rng.uniform(2.0, 8.0), 3);
                    Op::read(Query::Join { c }, self.join_expect(c))
                }
                Workload::AutocommitInsert => {
                    let key = INSERT_KEY_BASE + i as i64;
                    let g = Gauss::draw(&mut rng);
                    Op {
                        sql: format!("INSERT INTO readings VALUES ({key}, {})", g.sql()),
                        query: None,
                        expect: Expect::Affected(1),
                        inserts: Some(key),
                    }
                }
                Workload::TxnMix => unreachable!("txn_mix operations come from txn_ops"),
            })
            .collect()
    }
}

/// One `txn_mix` transaction: read one of the client's own rows, update a
/// hot or own row, insert a fresh row, commit.
#[derive(Debug, Clone)]
pub struct TxnOp {
    pub select: Op,
    pub update: Op,
    pub insert: Op,
}

impl Data {
    /// Client `client`'s `n` transactions of round `round`. `own` is the
    /// client's view of its own partition (keys `k` with
    /// `k % TXN_CLIENTS == client`, outside the hot set); it is advanced as
    /// if every transaction commits, which the client must mirror.
    pub fn txn_ops(&self, seed: u64, round: u64, client: usize, n: usize) -> Vec<TxnOp> {
        let mut rng = Rng::new(seed, 0x7A0 + 0x1_0000 * (round + 1) + client as u64);
        let rows = self.gauss.len() as i64;
        let clients = TXN_CLIENTS as i64;
        let own_count = (rows - HOT_ROWS) / clients;
        let own_key = |rng: &mut Rng| -> i64 {
            HOT_ROWS + clients * rng.below(own_count as u64) as i64 + client as i64
        };
        let mut own: std::collections::HashMap<i64, Gauss> = std::collections::HashMap::new();
        (0..n)
            .map(|i| {
                let sel_key = own_key(&mut rng);
                let current = *own.get(&sel_key).unwrap_or(&self.gauss[sel_key as usize]);
                let select = Op::read(
                    Query::Point { table: "readings", key: sel_key },
                    Expect::PointRow { key: sel_key, pdf: Some(current) },
                );
                let hot = rng.unit() < HOT_SHARE;
                let upd_key =
                    if hot { rng.below(HOT_ROWS as u64) as i64 } else { own_key(&mut rng) };
                let to = Gauss::draw(&mut rng);
                if !hot {
                    own.insert(upd_key, to);
                }
                let update = Op {
                    sql: format!("UPDATE readings SET value = {} WHERE rid = {upd_key}", to.sql()),
                    query: None,
                    expect: Expect::Affected(1),
                    inserts: None,
                };
                let ins_key = INSERT_KEY_BASE * (client as i64 + 1) + i as i64;
                let g = Gauss::draw(&mut rng);
                let insert = Op {
                    sql: format!("INSERT INTO readings VALUES ({ins_key}, {})", g.sql()),
                    query: None,
                    expect: Expect::Affected(1),
                    inserts: Some(ins_key),
                };
                TxnOp { select, update, insert }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_produce_identical_sql() {
        for w in Workload::ALL {
            let a = Data::generate(w, 11, Scale::SMOKE);
            let b = Data::generate(w, 11, Scale::SMOKE);
            let c = Data::generate(w, 12, Scale::SMOKE);
            assert_eq!(a.setup_sql(w), b.setup_sql(w), "{}", w.name());
            assert_ne!(a.setup_sql(w), c.setup_sql(w), "{}", w.name());
            if w == Workload::TxnMix {
                let sql = |d: &Data, seed| -> Vec<String> {
                    d.txn_ops(seed, 3, 1, 10)
                        .into_iter()
                        .flat_map(|t| [t.select.sql, t.update.sql, t.insert.sql])
                        .collect()
                };
                assert_eq!(sql(&a, 11), sql(&b, 11));
                assert_ne!(sql(&a, 11), sql(&a, 12));
            } else {
                let sql = |d: &Data, seed, round| -> Vec<String> {
                    d.ops(w, seed, round, 10).into_iter().map(|o| o.sql).collect()
                };
                assert_eq!(sql(&a, 11, 0), sql(&b, 11, 0));
                assert_ne!(sql(&a, 11, 0), sql(&a, 12, 0));
                if w != Workload::AutocommitInsert {
                    assert_ne!(sql(&a, 11, 0), sql(&a, 11, 1), "rounds differ");
                }
            }
        }
    }

    #[test]
    fn setup_is_batched_and_sized() {
        let d = Data::generate(Workload::IndexedThreshold, 1, Scale::SMOKE);
        let sql = d.setup_sql(Workload::IndexedThreshold);
        assert!(sql[0].starts_with("CREATE TABLE readings"));
        assert_eq!(sql.iter().filter(|s| s.starts_with("INSERT")).count(), 1000usize.div_ceil(256));
        assert!(sql.last().expect("statements").starts_with("CREATE INDEX ix_value"));
        assert_eq!(write_bytes(&sql[0]), 0);
        assert_eq!(write_bytes(&sql[1]), sql[1].len() as u64);
    }

    struct Fake {
        text: String,
        keys: Vec<i64>,
        existence: Vec<f64>,
    }

    impl Answer for Fake {
        fn text(&self) -> &str {
            &self.text
        }
        fn keys(&self, _: &str) -> Option<Vec<i64>> {
            Some(self.keys.clone())
        }
        fn existence(&self) -> Option<Vec<f64>> {
            Some(self.existence.clone())
        }
        fn affected(&self) -> Option<usize> {
            None
        }
        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn checks_accept_right_answers_and_reject_wrong_ones() {
        let fake = |text: &str, keys: &[i64], existence: &[f64]| Fake {
            text: text.to_string(),
            keys: keys.to_vec(),
            existence: existence.to_vec(),
        };
        let g = Gauss { mean: 12.5, var: 4.25 };
        let point = Expect::PointRow { key: 7, pdf: Some(g) };
        assert!(check(&point, &fake("| 7 | Gaus(12.5,4.25) |", &[7], &[1.0])).is_ok());
        assert!(check(&point, &fake("| 7 | Gaus(12.5,4.2) |", &[7], &[1.0])).is_err());
        assert!(check(&point, &fake("| 8 | Gaus(12.5,4.25) |", &[8], &[1.0])).is_err());
        assert!(check(&point, &fake("", &[7, 7], &[1.0, 1.0])).is_err());

        let keys = Expect::Keys { must: vec![1, 4], maybe: vec![9] };
        assert!(check(&keys, &fake("", &[4, 1], &[])).is_ok());
        assert!(check(&keys, &fake("", &[1, 9, 4], &[])).is_ok(), "ties may go either way");
        assert!(check(&keys, &fake("", &[1], &[])).is_err());
        assert!(check(&keys, &fake("", &[1, 4, 5], &[])).is_err());

        let join = Expect::JoinRows { rows: 2, existence: 0.75 };
        assert!(check(&join, &fake("", &[], &[0.5, 0.25])).is_ok());
        assert!(check(&join, &fake("", &[], &[0.5, 0.26])).is_err());
        assert!(check(&join, &fake("", &[], &[0.75])).is_err());
        assert!(check(&Expect::Affected(1), &fake("", &[], &[])).is_err());
    }

    #[test]
    fn threshold_expectation_follows_the_closed_form() {
        let d = Data {
            gauss: vec![Gauss { mean: 10.0, var: 4.0 }, Gauss { mean: 50.0, var: 4.0 }],
            ..Data::default()
        };
        // P(8 ≤ X ≤ 12) = 0.683 for the first row, ~0 for the second
        let e = d.threshold_expect("readings", 8.0, 12.0, 0.5);
        assert_eq!(e, Expect::Keys { must: vec![0], maybe: vec![] });
        // P(X < 12.5631) is 0.9 to ~1e-6 for the first row: outside the band, above
        let e = d.threshold_expect("readings", f64::NEG_INFINITY, 12.5632, 0.9);
        assert_eq!(e, Expect::Keys { must: vec![0], maybe: vec![] });
        let e = d.threshold_expect("readings", f64::NEG_INFINITY, 12.5630, 0.9);
        assert_eq!(e, Expect::Keys { must: vec![], maybe: vec![] });
        // a bound on the mean makes P exactly 1/2: a tie, either answer is right
        let e = d.threshold_expect("readings", 10.0, 30.0, 0.5);
        assert_eq!(e, Expect::Keys { must: vec![], maybe: vec![0] });
    }

    #[test]
    fn join_expectation_is_the_brute_force_sum() {
        let d = Data {
            joint: vec![JointPoints(vec![
                ((1.0, 2.0), 0.25),
                ((2.0, 3.0), 0.25),
                ((3.0, 1.0), 0.25),
                ((4.0, 4.0), 0.25),
            ])],
            ys: vec![Points(vec![(0.5, 0.25), (1.5, 0.25), (2.5, 0.25), (3.5, 0.25)])],
            ..Data::default()
        };
        assert_eq!(d.join_expect(1.5), Expect::JoinRows { rows: 1, existence: 0.3125 });
        assert_eq!(d.join_expect(9.0), Expect::JoinRows { rows: 0, existence: 0.0 });
    }

    #[test]
    fn txn_clients_never_share_own_rows() {
        let d = Data::generate(Workload::TxnMix, 5, Scale::FULL);
        let a = d.txn_ops(5, 0, 0, 50);
        let b = d.txn_ops(5, 0, 1, 50);
        // keys of UPDATEs outside the shared hot set
        let own = |ops: &[TxnOp]| -> Vec<i64> {
            ops.iter()
                .map(|t| {
                    t.update.sql.rsplit("= ").next().expect("WHERE rid = k").parse().expect("key")
                })
                .filter(|k| *k >= HOT_ROWS)
                .collect()
        };
        assert!(!own(&a).is_empty() && own(&a).iter().all(|k| k % 2 == 0));
        assert!(!own(&b).is_empty() && own(&b).iter().all(|k| k % 2 == 1));
        let ins =
            |ops: &[TxnOp]| -> Vec<i64> { ops.iter().filter_map(|t| t.insert.inserts).collect() };
        assert!(ins(&a).iter().all(|k| !ins(&b).contains(k)));
    }
}

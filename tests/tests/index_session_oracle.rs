//! Session-level index/DML interleaving oracle.
//!
//! Two durable engines run the same seeded script through
//! `DurableSession::execute`: autocommit INSERT/UPDATE/DELETE, explicit
//! `BEGIN … COMMIT`/`ROLLBACK` transactions that run threshold SELECTs over
//! their own writes, and a second reader session that holds one `BEGIN`
//! across later commits. Engine A carries a cdf index on `v`; engine B has
//! none. Both tables carry a second uncertain column `w` that no index
//! covers, so the support-interval fallback serves it.
//!
//! Index trees and support masks are cached per table version and shared
//! across statements and sessions, so a structure served for the wrong
//! version shows up here as a divergence:
//!
//! * every threshold SELECT must render identically on A and B;
//! * an autocommit SELECT must return the ids a plain scan of the
//!   committed state returns (no index infrastructure, no cache);
//! * the held reader must see its first answer again for as long as its
//!   transaction stays open.
//!
//! Set `ORION_ORACLE_SEED` to replay `index_session_env_seeded` with a
//! pinned seed (decimal or 0x-hex).

use orion_core::prelude::*;
use orion_sql::{render_output, DurableSession, Output};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Script steps per run.
const STEPS: usize = 240;

/// One side of the oracle: a writer and a reader session on one engine.
struct Side {
    writer: DurableSession,
    reader: DurableSession,
    dir: PathBuf,
}

impl Side {
    fn open(dir: PathBuf, indexed: bool) -> Side {
        std::fs::remove_dir_all(&dir).ok();
        let mut writer = DurableSession::open(&dir).unwrap();
        writer.execute("CREATE TABLE t (id INT, v REAL UNCERTAIN, w REAL UNCERTAIN)").unwrap();
        if indexed {
            writer.execute("CREATE INDEX ix_v ON t (v) USING cdf").unwrap();
        }
        let reader = DurableSession::from_db(writer.db().clone());
        Side { writer, reader, dir }
    }
}

/// A threshold query `Pr(col ∈ [lo, hi]) ⊙ p`; `hi = None` is `col > lo`.
#[derive(Debug, Clone)]
struct Query {
    col: &'static str,
    lo: f64,
    hi: Option<f64>,
    op: CmpOp,
    p: f64,
}

impl Query {
    fn random(rng: &mut StdRng) -> Query {
        let col = if rng.gen_range(0..2u32) == 0 { "v" } else { "w" };
        let lo = rng.gen_range(0..200i64) as f64 / 2.0;
        let hi = (rng.gen_range(0..3u32) > 0).then(|| lo + rng.gen_range(1..60i64) as f64 / 2.0);
        // Mostly prunable operators (the index and the fallback engage);
        // `<` keeps the non-prunable path honest.
        let op = [CmpOp::Gt, CmpOp::Gt, CmpOp::Ge, CmpOp::Lt][rng.gen_range(0..4usize)];
        let p = [0.1, 0.5, 0.9][rng.gen_range(0..3usize)];
        Query { col, lo, hi, op, p }
    }

    fn sql(&self) -> String {
        let (col, lo) = (self.col, self.lo);
        let inner = match self.hi {
            Some(hi) => format!("{col} BETWEEN {lo} AND {hi}"),
            None => format!("{col} > {lo}"),
        };
        format!("SELECT id, v, w FROM t WHERE PROB({inner}) {} {}", self.op, self.p)
    }

    fn pred(&self) -> Predicate {
        match self.hi {
            Some(hi) => Predicate::And(vec![
                Predicate::cmp(self.col, CmpOp::Ge, self.lo),
                Predicate::cmp(self.col, CmpOp::Le, hi),
            ]),
            None => Predicate::cmp(self.col, CmpOp::Gt, self.lo),
        }
    }
}

fn random_pdf(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3u32) {
        0 => {
            let (m, var) = (rng.gen_range(0..200i64), rng.gen_range(1..40i64));
            format!("GAUSSIAN({}, {})", m as f64 / 2.0, var as f64 / 4.0)
        }
        1 => {
            let lo = rng.gen_range(0..190i64) as f64 / 2.0;
            format!("UNIFORM({lo}, {})", lo + rng.gen_range(1..20i64) as f64 / 2.0)
        }
        // Partial mass (0.7): probabilistic existence the mass bounds prune.
        _ => {
            let a = rng.gen_range(0..100i64);
            format!("DISCRETE({a}:0.3, {}:0.4)", a + rng.gen_range(1..10i64))
        }
    }
}

/// A random DML statement; `next_id` allocates fresh ids for inserts.
fn random_dml(rng: &mut StdRng, next_id: &mut i64) -> String {
    let target = rng.gen_range(0..(*next_id).max(1));
    match rng.gen_range(0..6u32) {
        0..=2 => {
            let rows: Vec<String> = (0..rng.gen_range(1..4u32))
                .map(|_| {
                    *next_id += 1;
                    format!("({}, {}, {})", *next_id, random_pdf(rng), random_pdf(rng))
                })
                .collect();
            format!("INSERT INTO t VALUES {}", rows.join(", "))
        }
        3 | 4 => {
            let col = if rng.gen_range(0..2u32) == 0 { "v" } else { "w" };
            format!("UPDATE t SET {col} = {} WHERE id = {target}", random_pdf(rng))
        }
        _ => format!("DELETE FROM t WHERE id = {target}"),
    }
}

fn ids(out: &Output) -> Vec<i64> {
    let Output::Table(rel) = out else { panic!("expected a table, got {out:?}") };
    (0..rel.len())
        .map(|i| match rel.value(i, "id").unwrap() {
            Value::Int(v) => *v,
            other => panic!("expected an int id, got {other:?}"),
        })
        .collect()
}

/// Runs `sql` on both sides' writer (or reader) and asserts they agree.
fn both(sides: &mut [Side; 2], reader: bool, sql: &str, ctx: &str) -> Output {
    let [a, b] = sides.each_mut().map(|s| {
        let session = if reader { &mut s.reader } else { &mut s.writer };
        session.execute(sql).unwrap_or_else(|e| panic!("{ctx}: `{sql}` failed: {e}"))
    });
    assert_eq!(
        render_output(&a).unwrap(),
        render_output(&b).unwrap(),
        "{ctx}: indexed and unindexed sessions disagree on `{sql}`"
    );
    a
}

/// The ids a plain scan of the committed table returns for `q`: no index
/// catalog is attached, so neither trees nor the support fallback engage.
fn committed_scan(side: &Side, q: &Query) -> Vec<i64> {
    side.writer.db().with_tables(|tables, reg| {
        let out = threshold_pred(&tables["t"], &q.pred(), q.op, q.p, reg, &ExecOptions::default())
            .unwrap();
        out.tuples
            .iter()
            .map(|t| match t.certain[0] {
                Value::Int(v) => v,
                ref other => panic!("expected an int id, got {other:?}"),
            })
            .collect()
    })
}

fn run_oracle(name: &str, seed: u64) {
    let base = orion_tests::scratch_dir(&format!("index_session_oracle-{name}"));
    let mut sides = [Side::open(base.join("indexed"), true), Side::open(base.join("plain"), false)];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0i64;
    for _ in 0..8 {
        let sql = random_dml(&mut rng, &mut next_id);
        both(&mut sides, false, &sql, "setup");
    }
    let mut in_txn = false;
    // The held reader's first query and answer, while its BEGIN is open.
    let mut held: Option<(Query, Output)> = None;
    let mut selects = 0usize;
    for step in 0..STEPS {
        let ctx = format!("seed {seed:#x} step {step}");
        match rng.gen_range(0..12u32) {
            0..=3 => {
                let sql = random_dml(&mut rng, &mut next_id);
                both(&mut sides, false, &sql, &ctx);
            }
            4..=6 => {
                let q = Query::random(&mut rng);
                let out = both(&mut sides, false, &q.sql(), &ctx);
                selects += 1;
                if !in_txn {
                    assert_eq!(ids(&out), committed_scan(&sides[0], &q), "{ctx}: vs scan");
                }
            }
            7 | 8 => {
                let sql = if in_txn {
                    if rng.gen_range(0..2u32) == 0 {
                        "COMMIT"
                    } else {
                        "ROLLBACK"
                    }
                } else {
                    "BEGIN"
                };
                in_txn = !in_txn;
                both(&mut sides, false, sql, &ctx);
            }
            _ => match held.take() {
                None => {
                    both(&mut sides, true, "BEGIN", &ctx);
                    let q = Query::random(&mut rng);
                    let out = both(&mut sides, true, &q.sql(), &ctx);
                    held = Some((q, out));
                }
                Some((q, first)) => {
                    let again = both(&mut sides, true, &q.sql(), &ctx);
                    assert_eq!(
                        render_output(&again).unwrap(),
                        render_output(&first).unwrap(),
                        "{ctx}: the held reader's snapshot moved"
                    );
                    let other = Query::random(&mut rng);
                    both(&mut sides, true, &other.sql(), &ctx);
                    selects += 2;
                    if rng.gen_range(0..3u32) == 0 {
                        both(&mut sides, true, "COMMIT", &ctx);
                    } else {
                        held = Some((q, first));
                    }
                }
            },
        }
    }
    assert!(selects > STEPS / 5, "the script ran {selects} threshold SELECTs");
    let (trees, _) = sides[0].writer.db().indexes().lock().build_cache().entries();
    assert!(trees > 0, "the indexed side served queries from its cdf tree");
    for side in &sides {
        side.writer.db().check_invariants().unwrap();
    }
    for side in sides {
        let dir = side.dir.clone();
        drop(side);
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_dir_all(base).ok();
}

#[test]
fn index_session_fixed_seeds() {
    for seed in [1u64, 0x5EED] {
        run_oracle(&format!("fixed-{seed}"), seed);
    }
}

/// Seeded entry point for CI: `scripts/check.sh` runs this with three
/// pinned `ORION_ORACLE_SEED` values; unset, it uses a fixed default.
#[test]
fn index_session_env_seeded() {
    let seed: u64 = std::env::var("ORION_ORACLE_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(0x1DE7);
    run_oracle("env_seeded", seed);
}

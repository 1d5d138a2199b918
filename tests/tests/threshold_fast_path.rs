//! Differential oracle for the `Pr(θ)` fast path.
//!
//! [`ProbPredicate::floored_mass`] reads `Pr(θ ∧ tuple exists)` as a
//! floored mass instead of building the floored tuple. Wherever it answers,
//! the answer must be bit-identical (`f64::to_bits`) to
//! [`ProbPredicate::materialized`] — σ's floor followed by the (collapsed)
//! existence probability — and it must count exactly the `ExecStats` the
//! materializing path counts. Where it declines (`Points`/`Grid` blocks,
//! history-dependent nodes with histories on, predicates with no atom
//! decomposition) it must count nothing, and `eval` must still match.
//!
//! Set `ORION_ORACLE_SEED` (decimal or 0x-hex) to replay with a pinned
//! generator seed, as the other oracles do.

use orion_core::history::Ancestors;
use orion_core::prelude::*;
use orion_core::threshold::ProbPredicate;
use orion_obs::ExecStats;
use orion_pdf::prelude::*;
use std::sync::Arc;

fn seed() -> u64 {
    std::env::var("ORION_ORACLE_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(0x7E57)
}

struct Gen(XorShift);

impl Gen {
    fn new(salt: u64) -> Self {
        Gen(XorShift::new(seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    fn f(&mut self) -> f64 {
        self.0.next_f64()
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f()
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.f() * n as f64) as usize).min(n - 1)
    }

    /// A pdf over roughly `[0, 100]`: Gaussian, Uniform, hist-N or disc-N,
    /// a third of them partial (mass < 1).
    fn pdf(&mut self) -> Pdf1 {
        let p = match self.below(4) {
            0 => Pdf1::gaussian(self.range(0.0, 100.0), self.range(0.5, 60.0)).unwrap(),
            1 => {
                let lo = self.range(-5.0, 90.0);
                Pdf1::uniform(lo, lo + self.range(0.5, 30.0)).unwrap()
            }
            2 => {
                let n = 1 + self.below(25);
                let w: Vec<f64> = (0..n).map(|_| self.range(0.0, 1.0)).collect();
                let total: f64 = w.iter().sum();
                let lo = self.range(-5.0, 80.0);
                let width = self.range(0.2, 4.0);
                Pdf1::histogram(lo, width, w.iter().map(|x| x / total).collect()).unwrap()
            }
            _ => {
                let n = 1 + self.below(25);
                let mut pts: Vec<(f64, f64)> = (0..n)
                    .map(|_| ((self.range(0.0, 100.0) * 4.0).round() / 4.0, self.range(0.0, 1.0)))
                    .collect();
                pts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                pts.dedup_by(|a, b| a.0 == b.0);
                let total: f64 = pts.iter().map(|p| p.1).sum();
                Pdf1::discrete(pts.into_iter().map(|(v, p)| (v, p / total)).collect()).unwrap()
            }
        };
        if self.below(3) == 0 {
            p.scale(self.range(0.2, 1.0))
        } else {
            p
        }
    }

    /// A bound that sometimes lands exactly on a discrete support point
    /// or a histogram bucket edge.
    fn bound(&mut self) -> f64 {
        if self.below(3) == 0 {
            (self.range(0.0, 100.0) * 4.0).round() / 4.0
        } else {
            self.range(-10.0, 110.0)
        }
    }
}

fn between(col: &str, lo: f64, hi: f64) -> Predicate {
    Predicate::And(vec![Predicate::cmp(col, CmpOp::Ge, lo), Predicate::cmp(col, CmpOp::Le, hi)])
}

/// Predicates over `rel`'s columns `v`, `w` (uncertain) and `k` (certain,
/// sometimes NULL) when present.
fn predicates(g: &mut Gen, with_w: bool, with_k: bool) -> Vec<Predicate> {
    let mut out = Vec::new();
    for _ in 0..2 {
        let (a, b) = (g.bound(), g.bound());
        let (lo, hi) = (a.min(b), a.max(b));
        out.push(between("v", lo, hi));
        out.push(Predicate::cmp("v", CmpOp::Lt, g.bound()));
        out.push(Predicate::cmp("v", CmpOp::Ge, g.bound()));
        // The same column floored three times, out of order.
        out.push(Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Le, hi),
            Predicate::cmp("v", CmpOp::Gt, lo),
            Predicate::cmp("v", CmpOp::Lt, g.bound()),
        ]));
        // No atom decomposition: σ's general path.
        out.push(Predicate::Or(vec![
            Predicate::cmp("v", CmpOp::Lt, lo),
            Predicate::cmp("v", CmpOp::Gt, hi),
        ]));
        if with_w {
            out.push(Predicate::And(vec![
                between("v", lo, hi),
                Predicate::cmp("w", CmpOp::Lt, g.bound()),
            ]));
            out.push(Predicate::cmp_cols("v", CmpOp::Lt, "w"));
        }
        if with_k {
            let k = g.below(6) as i64;
            out.push(Predicate::cmp("k", CmpOp::Le, k));
            out.push(Predicate::And(vec![Predicate::cmp("k", CmpOp::Ge, k), between("v", lo, hi)]));
            // A certain atom between two floors: a failing `k` stops the
            // walk after one floor has been counted.
            let mut conj =
                vec![Predicate::cmp("v", CmpOp::Ge, lo), Predicate::cmp("k", CmpOp::Lt, k)];
            if with_w {
                conj.push(Predicate::cmp("w", CmpOp::Ge, g.bound()));
            }
            out.push(Predicate::And(conj));
        }
    }
    out
}

/// Which tuples the fast path must answer.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Expect {
    /// Every tuple a fast-decomposable predicate reaches.
    Fast,
    /// No tuple: the materializing path owns them all.
    Fallback,
    /// Either; the equality checks still apply.
    Mixed,
}

/// A coarse grid keeps the materializing path's continuous merges cheap;
/// bit-identity does not depend on the resolution.
const RESOLUTION: usize = 16;

fn opts(use_histories: bool, stats: &Arc<ExecStats>) -> ExecOptions {
    ExecOptions {
        use_histories,
        resolution: RESOLUTION,
        ..ExecOptions::default().with_stats(stats.clone())
    }
}

/// Whether every certain-only conjunct of θ holds for `t` — otherwise
/// both paths answer 0 at the first failing one, before any pdf.
fn certain_conjuncts_hold(rel: &Relation, t: &ProbTuple, pred: &Predicate) -> bool {
    let lookup =
        |name: &str| rel.schema.index_of(name).map(|i| t.certain[i].clone()).unwrap_or(Value::Null);
    pred.conjuncts().iter().filter(|c| !floors_uncertain(c)).all(|c| c.eval(&lookup) == Some(true))
}

/// Checks every tuple of `rel` under every predicate, with histories on
/// and off; returns how many evaluations took the fast path.
fn check(
    what: &str,
    rel: &Relation,
    reg: &HistoryRegistry,
    preds: &[Predicate],
    expect: [Expect; 2],
) -> usize {
    let mut fast_hits = 0;
    for (use_histories, expect) in [(true, expect[0]), (false, expect[1])] {
        for pred in preds {
            let compiled = ProbPredicate::compile(rel, pred);
            let decomposable = pred
                .conjuncts()
                .iter()
                .all(|c| c.single_column_floor().is_some() || !floors_uncertain(c));
            let (all_f, all_r) = (Arc::new(ExecStats::new()), Arc::new(ExecStats::new()));
            for (i, t) in rel.tuples.iter().enumerate() {
                let ctx = format!("{what} histories={use_histories} θ={pred} tuple {i}");
                let (sf, sr) = (Arc::new(ExecStats::new()), Arc::new(ExecStats::new()));
                let fast = compiled.floored_mass(t, &opts(use_histories, &sf));
                let slow = compiled.materialized(t, reg, &opts(use_histories, &sr));
                match (fast, slow) {
                    (Ok(Some(f)), Ok(s)) => {
                        assert!(
                            !(expect == Expect::Fallback
                                && floors_uncertain(pred)
                                && certain_conjuncts_hold(rel, t, pred)),
                            "{ctx}: must fall back"
                        );
                        assert_eq!(f.to_bits(), s.to_bits(), "{ctx}: {f} vs {s}");
                        assert_eq!(sf.snapshot(), sr.snapshot(), "{ctx}: counters");
                        fast_hits += 1;
                    }
                    (Ok(None), Ok(_)) => {
                        assert_eq!(sf.snapshot(), ExecStats::new().snapshot(), "{ctx}: declined");
                        assert!(
                            !(expect == Expect::Fast && decomposable),
                            "{ctx}: the fast path declined"
                        );
                    }
                    (Err(f), Err(s)) => {
                        assert_eq!(f.to_string(), s.to_string(), "{ctx}");
                        assert_eq!(sf.snapshot(), sr.snapshot(), "{ctx}: counters");
                    }
                    (f, s) => panic!("{ctx}: {f:?} vs {s:?}"),
                }
                // The public evaluator: fast path or fallback, clamped.
                let p = compiled.eval(t, reg, &opts(use_histories, &all_f)).unwrap();
                let s = compiled.materialized(t, reg, &opts(use_histories, &all_r)).unwrap();
                let clamped = if s <= 0.0 { 0.0 } else { s.min(1.0) };
                assert_eq!(p.to_bits(), clamped.to_bits(), "{ctx}: eval");
            }
            assert_eq!(all_f.snapshot(), all_r.snapshot(), "{what} θ={pred}: statement counters");
        }
    }
    fast_hits
}

/// Whether θ reads an uncertain column at all (certain-only predicates
/// floor nothing, so they may stay fast over any block).
fn floors_uncertain(pred: &Predicate) -> bool {
    pred.columns().iter().any(|n| n == "v" || n == "w")
}

/// The threshold operator answers like the materializing reference, in
/// row and batch mode, serial and parallel, with identical counters.
fn check_operator(rel: &Relation, reg: &HistoryRegistry, pred: &Predicate) {
    let compiled = ProbPredicate::compile(rel, pred);
    let want: Vec<&ProbTuple> = rel
        .tuples
        .iter()
        .filter(|t| {
            let o = ExecOptions { resolution: RESOLUTION, ..ExecOptions::default() };
            compiled.materialized(t, reg, &o).unwrap() > 0.3
        })
        .collect();
    let mut counters = Vec::new();
    for mode in [ExecMode::Row, ExecMode::Batch] {
        for threads in [1, 3] {
            let stats = Arc::new(ExecStats::new());
            let o = ExecOptions { mode, threads, morsel_size: 16, ..opts(true, &stats) };
            let out = threshold_pred(rel, pred, CmpOp::Gt, 0.3, reg, &o).unwrap();
            let got: Vec<&ProbTuple> = out.tuples.iter().collect();
            assert_eq!(got, want, "{mode:?} threads {threads} θ={pred}");
            let s = stats.snapshot();
            counters.push((s.pdf_floors, s.pdf_products, s.collapses));
        }
    }
    assert!(counters.windows(2).all(|w| w[0] == w[1]), "θ={pred}: {counters:?}");
}

/// Base rows: `k` (certain, a fifth NULL), `v` and `w` independent.
fn base_rows(g: &mut Gen, n: usize) -> (Relation, HistoryRegistry) {
    let schema = ProbSchema::new(
        vec![
            ("k", ColumnType::Int, false),
            ("v", ColumnType::Real, true),
            ("w", ColumnType::Real, true),
        ],
        vec![],
    )
    .unwrap();
    let mut rel = Relation::new("t", schema);
    let mut reg = HistoryRegistry::new();
    for _ in 0..n {
        let k = if g.below(5) == 0 { Value::Null } else { Value::Int(g.below(6) as i64) };
        let (v, w) = (g.pdf(), g.pdf());
        rel.insert_simple(&mut reg, &[("k", k)], &[("v", v), ("w", w)]).unwrap();
    }
    (rel, reg)
}

#[test]
fn base_rows_take_the_fast_path_bit_for_bit() {
    let mut g = Gen::new(1);
    let (rel, reg) = base_rows(&mut g, 120);
    let preds = predicates(&mut g, true, true);
    let hits = check("base", &rel, &reg, &preds, [Expect::Fast, Expect::Fast]);
    assert!(hits > 0);
    for pred in preds.iter().take(8) {
        check_operator(&rel, &reg, pred);
    }
}

#[test]
fn already_floored_symbolic_pdfs() {
    // The output of a σ: symbolic pdfs carry a floor, histograms and
    // discrete pdfs have absorbed theirs.
    let mut g = Gen::new(2);
    let (rel, reg) = base_rows(&mut g, 120);
    let (a, b) = (g.range(10.0, 50.0), g.range(50.0, 90.0));
    let sel =
        Predicate::Or(vec![Predicate::cmp("v", CmpOp::Lt, a), Predicate::cmp("v", CmpOp::Gt, b)]);
    // An OR floors through the general path; an AND keeps floors symbolic.
    let once =
        select(&rel, &Predicate::cmp("v", CmpOp::Gt, a), &reg, &ExecOptions::default()).unwrap();
    let twice =
        select(&once, &Predicate::cmp("v", CmpOp::Lt, b), &reg, &ExecOptions::default()).unwrap();
    assert!(twice.tuples.iter().any(|t| matches!(
        t.nodes[0].joint.blocks()[0],
        Block::Uni(Pdf1::Symbolic { ref floor, .. }) if floor.intervals().len() == 2
    )));
    let preds = predicates(&mut g, true, true);
    check("σ twice", &twice, &reg, &preds, [Expect::Fast, Expect::Fast]);
    let general = select(&rel, &sel, &reg, &ExecOptions::default()).unwrap();
    check("σ general", &general, &reg, &preds, [Expect::Mixed, Expect::Mixed]);
    for pred in preds.iter().take(8) {
        check_operator(&twice, &reg, pred);
    }
}

#[test]
fn correlated_nodes() {
    // CORRELATED (v, w): a JOINT pmf is a `Points` block (materializing
    // path); independent 1-D blocks inside one node stay on the fast path.
    let mut g = Gen::new(3);
    let schema = ProbSchema::new(
        vec![
            ("k", ColumnType::Int, false),
            ("v", ColumnType::Real, true),
            ("w", ColumnType::Real, true),
        ],
        vec![vec!["v", "w"]],
    )
    .unwrap();
    let mut points = Relation::new("j", schema.clone());
    let mut blocks = Relation::new("b", schema);
    let mut reg = HistoryRegistry::new();
    for i in 0..60 {
        let k = if i % 4 == 0 { Value::Null } else { Value::Int(g.below(6) as i64) };
        let n = 1 + g.below(6);
        let mut pts: Vec<(Vec<f64>, f64)> = (0..n)
            .map(|j| (vec![g.range(0.0, 100.0).round() + j as f64 * 0.5, g.range(0.0, 100.0)], 1.0))
            .collect();
        let total = n as f64 * g.range(1.0, 2.0);
        for p in &mut pts {
            p.1 /= total;
        }
        let joint = JointPdf::from_points(JointDiscrete::from_points(2, pts).unwrap());
        points.insert(&mut reg, &[("k", k.clone())], vec![(vec!["v", "w"], joint)]).unwrap();
        let joint = JointPdf::independent(vec![g.pdf(), g.pdf()]).unwrap();
        blocks.insert(&mut reg, &[("k", k)], vec![(vec!["v", "w"], joint)]).unwrap();
    }
    let preds = predicates(&mut g, true, true);
    check("JOINT points", &points, &reg, &preds, [Expect::Fallback, Expect::Fallback]);
    let hits = check("JOINT blocks", &blocks, &reg, &preds, [Expect::Fast, Expect::Fast]);
    assert!(hits > 0);
    for pred in preds.iter().take(8) {
        check_operator(&points, &reg, pred);
        check_operator(&blocks, &reg, pred);
    }
}

/// `Ta = Π(id, v)(σ(T))` and `Tb = Π(id, w)(σ(T))` over one correlated
/// base, joined on `id` without collapsing: each result tuple holds two
/// nodes descending from the same base pdf.
fn lazy_join(g: &mut Gen, n: usize) -> (Relation, HistoryRegistry) {
    let schema = ProbSchema::new(
        vec![
            ("id", ColumnType::Int, false),
            ("v", ColumnType::Real, true),
            ("w", ColumnType::Real, true),
        ],
        vec![vec!["v", "w"]],
    )
    .unwrap();
    let mut base = Relation::new("T", schema);
    let mut reg = HistoryRegistry::new();
    for id in 0..n as i64 {
        let joint = JointPdf::independent(vec![g.pdf(), g.pdf()]).unwrap();
        base.insert(&mut reg, &[("id", Value::Int(id))], vec![(vec!["v", "w"], joint)]).unwrap();
    }
    let lazy = ExecOptions { eager_collapse: false, ..ExecOptions::default() };
    let sel_v = select(&base, &Predicate::cmp("v", CmpOp::Lt, 90.0), &reg, &lazy).unwrap();
    let mut ta = project(&sel_v, &["id", "v"], &reg, &lazy).unwrap();
    ta.name = "Ta".into();
    let sel_w = select(&base, &Predicate::cmp("w", CmpOp::Gt, 5.0), &reg, &lazy).unwrap();
    let mut tb = project(&sel_w, &["id", "w"], &reg, &lazy).unwrap();
    tb.name = "Tb".into();
    let on = Predicate::cmp_cols("Ta.id", CmpOp::Eq, "Tb.id");
    let joined = join(&ta, &tb, Some(&on), &reg, &lazy).unwrap();
    assert!(joined.tuples.iter().all(|t| t.nodes.len() == 2), "dependent nodes stay apart");
    (joined, reg)
}

#[test]
fn history_dependent_nodes_after_a_join() {
    let mut g = Gen::new(4);
    let (joined, reg) = lazy_join(&mut g, 60);
    let preds = predicates(&mut g, true, false);
    // With histories the two nodes must be collapsed first: fallback.
    // Without, the naive product is what both paths compute.
    let hits = check("lazy join", &joined, &reg, &preds, [Expect::Fallback, Expect::Fast]);
    assert!(hits > 0);
    for pred in preds.iter().take(8) {
        check_operator(&joined, &reg, pred);
    }
}

#[test]
fn history_dependent_nodes_after_update() {
    // An UPDATE replaces a node with a fresh base pdf (as `UPDATE .. SET`
    // does), which cuts the shared history: updated rows become fast,
    // the rest still need the collapse.
    let mut g = Gen::new(5);
    let (mut joined, mut reg) = lazy_join(&mut g, 60);
    let w = joined.schema.column("w").unwrap().id;
    let fresh: Vec<Pdf1> = (0..joined.len()).map(|_| g.pdf()).collect();
    for (i, t) in joined.tuples_mut().iter_mut().enumerate() {
        if i % 3 != 0 {
            continue;
        }
        let ni = t.node_index_for(w).unwrap();
        reg.release_refs(&t.nodes[ni].ancestors);
        let joint = JointPdf::from_pdf1(fresh[i].clone());
        let id = reg.register(vec![w], joint.clone());
        let anc: Ancestors = [id].into_iter().collect();
        reg.add_refs(&anc);
        t.nodes[ni] = PdfNode::base(id, &[w], joint, anc);
    }
    let preds = predicates(&mut g, true, false);
    let hits = check("after UPDATE", &joined, &reg, &preds, [Expect::Mixed, Expect::Fast]);
    assert!(hits > 0);
    // With histories on, exactly the updated rows are fast.
    let pred = between("v", 20.0, 80.0);
    let compiled = ProbPredicate::compile(&joined, &pred);
    for (i, t) in joined.tuples.iter().enumerate() {
        let fast = compiled.floored_mass(t, &ExecOptions::default()).unwrap();
        assert_eq!(fast.is_some(), i % 3 == 0, "tuple {i}");
    }
    for pred in preds.iter().take(8) {
        check_operator(&joined, &reg, pred);
    }
}

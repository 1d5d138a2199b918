//! Index-vs-scan differential oracle: on randomly generated relations
//! (gaussian, discrete, and partial-mass pdfs; NULL-bearing certain keys)
//! and randomly drawn threshold/selection queries, the persistent-index
//! access paths must be **bit-identical** to the plain scan — same result
//! tuples (certain values, pdf values, history ids) and same registry
//! reference counts — in every configuration: scan vs cost-planned vs
//! rule-forced index, row and batch modes, 1 and 4 threads.
//!
//! The index layer only ever *prunes* (its mask is a sound superset of the
//! passing set), so any divergence — an unsound cdf bound, a mis-keyed
//! support interval, a mask misapplied by the compacted executor — shows
//! up as an assertion failure, not as statistical noise.
//!
//! Set `ORION_ORACLE_SEED` to replay `index_env_seeded_differential` with
//! a pinned generator seed (decimal or 0x-hex), matching the recovery and
//! batch oracles' replay protocol.

use orion_core::batch::ExecMode;
use orion_core::pindex::{IndexDef, IndexHandle, IndexKind, PlannerMode};
use orion_core::plan::{plan_select_access, plan_threshold_access};
use orion_core::prelude::*;
use orion_core::select::select_masked;
use orion_core::threshold::{threshold_pred, threshold_pred_masked};
use orion_pdf::prelude::*;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Thread counts exercised per mode; morsel size 4 splits even the small
/// generated relations into several morsels.
const THREADS: [usize; 2] = [1, 4];

/// How the access path is chosen for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// No index infrastructure at all: the seed scan.
    Scan,
    /// Persistent cdf/evx index + cost-based planner.
    Cost,
    /// Persistent index forced by the rule-based planner.
    Rule,
}

/// One generated tuple: a NULL-able certain key plus one uncertain value.
#[derive(Debug, Clone)]
struct TupleSpec {
    k: Option<i64>,
    v: Pdf1,
}

/// Pdf mix: gaussians (continuous supports for the cdf quantile levels),
/// discretes, and partial-mass discretes (probabilistic existence; their
/// mass bound is what the index prunes on).
fn arb_pdf() -> impl Strategy<Value = Pdf1> {
    prop_oneof![
        (-20.0..20.0f64, 0.5..6.0f64)
            .prop_map(|(m, var)| Pdf1::gaussian(m, var).expect("valid gaussian")),
        (prop::collection::vec((-20i64..20, 1u32..5), 1..4), prop::bool::ANY).prop_map(
            |(raw, partial)| {
                let denom: u32 = raw.iter().map(|(_, w)| w).sum::<u32>() + 2 * u32::from(partial);
                let points: Vec<(f64, f64)> = raw
                    .into_iter()
                    .map(|(v, w)| (v as f64, f64::from(w) / f64::from(denom)))
                    .collect();
                Pdf1::discrete(points).expect("valid pdf")
            }
        ),
    ]
}

fn arb_tuple_spec() -> impl Strategy<Value = TupleSpec> {
    ((0u32..4, -10i64..10), arb_pdf())
        .prop_map(|((w, key), v)| TupleSpec { k: (w != 0).then_some(key), v })
}

fn arb_tuples() -> impl Strategy<Value = Vec<TupleSpec>> {
    prop::collection::vec(arb_tuple_spec(), 4..12)
}

/// A threshold query `σ_{Pr(v ∈ [lo, hi]) ⊙ p}`: bounded and lower-bounded
/// intervals, prunable (`>`/`>=`) and non-prunable (`<`/`<=`) operators —
/// the latter must make the planner fall back to the scan, still bitwise
/// identical.
#[derive(Debug, Clone)]
struct Query {
    pred: Predicate,
    op: CmpOp,
    p: f64,
}

fn arb_query() -> impl Strategy<Value = Query> {
    let op = prop_oneof![Just(CmpOp::Gt), Just(CmpOp::Ge), Just(CmpOp::Lt), Just(CmpOp::Le)];
    let pred = prop_oneof![
        (-15.0..15.0f64).prop_map(|lo| Predicate::cmp("v", CmpOp::Gt, lo)),
        (-15.0..10.0f64, 0.5..10.0f64).prop_map(|(lo, w)| Predicate::And(vec![
            Predicate::cmp("v", CmpOp::Ge, lo),
            Predicate::cmp("v", CmpOp::Le, lo + w),
        ])),
    ];
    (pred, op, 0u32..=10).prop_map(|(pred, op, p)| Query { pred, op, p: f64::from(p) / 10.0 })
}

fn schema() -> ProbSchema {
    ProbSchema::new(vec![("k", ColumnType::Int, false), ("v", ColumnType::Real, true)], vec![])
        .expect("valid schema")
}

/// Materializes the relation + registry + stats from the specs; each
/// configuration rebuilds from scratch so history ids align across runs.
/// The schema is shared (AttrIds are globally allocated and the tuples
/// record them — see `batch_equiv.rs`).
fn build(schema: &ProbSchema, specs: &[TupleSpec]) -> (Relation, HistoryRegistry, StatsCatalog) {
    let mut reg = HistoryRegistry::new();
    let mut rel = Relation::new("t", schema.clone());
    for spec in specs {
        let k = spec.k.map(Value::Int).unwrap_or(Value::Null);
        rel.insert_simple(&mut reg, &[("k", k)], &[("v", spec.v.clone())]).expect("insert");
    }
    let mut stats = StatsCatalog::new();
    stats.insert(analyze_relation(&rel).expect("analyze"));
    (rel, reg, stats)
}

fn opts_for(path: Path, mode: ExecMode, threads: usize) -> ExecOptions {
    let indexes = match path {
        Path::Scan => None,
        Path::Cost | Path::Rule => {
            let handle = IndexHandle::new();
            handle
                .lock()
                .create(IndexDef {
                    name: "ix_v".into(),
                    table: "t".into(),
                    column: "v".into(),
                    kind: IndexKind::Cdf,
                })
                .expect("create index");
            handle
                .lock()
                .create(IndexDef {
                    name: "ix_k".into(),
                    table: "t".into(),
                    column: "k".into(),
                    kind: IndexKind::Evx,
                })
                .expect("create index");
            Some(handle)
        }
    };
    let planner = if path == Path::Rule { PlannerMode::Rule } else { PlannerMode::Cost };
    ExecOptions { mode, threads, morsel_size: 4, planner, indexes, ..ExecOptions::default() }
}

/// Compact registry fingerprint: base count, highest id, and every live
/// id's reference count.
fn registry_fingerprint(reg: &HistoryRegistry) -> (usize, u64, Vec<(u64, usize)>) {
    let mut refs: Vec<(u64, usize)> =
        reg.iter_bases().map(|(id, _)| (id, reg.ref_count(id))).collect();
    refs.sort_unstable();
    (reg.len(), reg.last_id(), refs)
}

/// Runs the threshold query scan-row-serial (the baseline), then through
/// every (path, mode, threads) configuration, asserting bitwise-equal
/// outputs and registry effects.
fn assert_threshold_equivalent(specs: &[TupleSpec], q: &Query) {
    let schema = schema();
    let (rel, reg, _) = build(&schema, specs);
    let base =
        threshold_pred(&rel, &q.pred, q.op, q.p, &reg, &opts_for(Path::Scan, ExecMode::Row, 1))
            .expect("baseline scan");
    let base_fp = registry_fingerprint(&reg);

    for path in [Path::Scan, Path::Cost, Path::Rule] {
        for mode in [ExecMode::Row, ExecMode::Batch] {
            for threads in THREADS {
                if path == Path::Scan && mode == ExecMode::Row && threads == 1 {
                    continue; // the baseline itself
                }
                let (rel, reg, stats) = build(&schema, specs);
                let opts = opts_for(path, mode, threads);
                let out = match path {
                    Path::Scan => {
                        threshold_pred(&rel, &q.pred, q.op, q.p, &reg, &opts).expect("scan run")
                    }
                    Path::Cost | Path::Rule => {
                        let ap =
                            plan_threshold_access(&rel, &q.pred, q.op, q.p, Some(&stats), &opts)
                                .expect("plan");
                        threshold_pred_masked(
                            &rel,
                            &q.pred,
                            q.op,
                            q.p,
                            ap.mask.as_deref(),
                            &reg,
                            &opts,
                        )
                        .expect("indexed run")
                    }
                };
                let ctx = format!("path={path:?} mode={mode} threads={threads}, query={q:?}");
                assert_eq!(out.tuples, base.tuples, "{ctx}");
                assert_eq!(registry_fingerprint(&reg), base_fp, "{ctx}");
            }
        }
    }
}

/// Same protocol for certain-key selection through the `evx` index.
fn assert_select_equivalent(specs: &[TupleSpec], pred: &Predicate) {
    let schema = schema();
    let (rel, reg, _) = build(&schema, specs);
    let base = select_masked(&rel, pred, None, &reg, &opts_for(Path::Scan, ExecMode::Row, 1))
        .expect("baseline scan");
    let base_fp = registry_fingerprint(&reg);

    for path in [Path::Cost, Path::Rule] {
        for mode in [ExecMode::Row, ExecMode::Batch] {
            for threads in THREADS {
                let (rel, reg, stats) = build(&schema, specs);
                let opts = opts_for(path, mode, threads);
                let ap = plan_select_access(&rel, pred, Some(&stats), &opts).expect("plan");
                let out = select_masked(&rel, pred, ap.mask.as_deref(), &reg, &opts)
                    .expect("indexed run");
                let ctx = format!("path={path:?} mode={mode} threads={threads}, pred={pred:?}");
                assert_eq!(out.tuples, base.tuples, "{ctx}");
                assert_eq!(registry_fingerprint(&reg), base_fp, "{ctx}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn threshold_paths_are_equivalent(specs in arb_tuples(), q in arb_query()) {
        assert_threshold_equivalent(&specs, &q);
    }

    #[test]
    fn select_paths_are_equivalent(
        specs in arb_tuples(),
        op in prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Le), Just(CmpOp::Gt), Just(CmpOp::Ge), Just(CmpOp::Eq)],
        c in -10i64..10,
    ) {
        // NULL keys make the comparison UNKNOWN; the evx index must keep
        // them as candidates and the evaluator rejects them — in every
        // configuration.
        assert_select_equivalent(&specs, &Predicate::cmp("k", op, c));
    }
}

/// Seeded entry point for CI: `scripts/check.sh` runs this with pinned
/// `ORION_ORACLE_SEED` values; unset, it uses a fixed default. The seed
/// drives the same generators as the property tests, so a failure replays
/// exactly with the same seed.
#[test]
fn index_env_seeded_differential() {
    let seed: u64 = std::env::var("ORION_ORACLE_SEED")
        .ok()
        .and_then(|s| match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => s.parse().ok(),
        })
        .unwrap_or(0x1DE5);
    let mut rng = TestRng::deterministic(&format!("orion-index-{seed}"));
    for _ in 0..6 {
        let specs = arb_tuples().generate(&mut rng);
        let q = arb_query().generate(&mut rng);
        assert_threshold_equivalent(&specs, &q);
        let op = prop_oneof![Just(CmpOp::Le), Just(CmpOp::Eq), Just(CmpOp::Gt)].generate(&mut rng);
        let c = (-10i64..10).generate(&mut rng);
        assert_select_equivalent(&specs, &Predicate::cmp("k", op, c));
    }
}

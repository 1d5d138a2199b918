//! Ablations of the design choices DESIGN.md calls out:
//!
//! * symbolic floors vs immediate histogram materialization on selection;
//! * eager vs lazy collapse of dependent nodes after joins;
//! * history maintenance on vs off during the dependent merge;
//! * grid resolution cost/accuracy for continuous merges.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orion_core::prelude::*;
use orion_core::project::project;
use orion_core::select::select;
use orion_pdf::prelude::*;
use std::hint::black_box;

/// A base table with correlated 2-D discrete joints (Figure 3 shape).
fn joint_table(n: usize, reg: &mut HistoryRegistry) -> Relation {
    orion_bench::fig6::base_table(n, 4, 11, reg)
}

fn bench_symbolic_vs_materialized_floors(c: &mut Criterion) {
    let mut g = c.benchmark_group("floor_strategy");
    let exact = Pdf1::gaussian(50.0, 25.0).unwrap();
    let region = RegionSet::from_interval(Interval::at_least(55.0));
    // Symbolic: O(1) — append a floor interval.
    g.bench_function("symbolic_floor_chain", |b| {
        b.iter(|| {
            let mut p = black_box(&exact).clone();
            for i in 0..5 {
                p = p.floor_region(&RegionSet::from_interval(Interval::at_least(55.0 - i as f64)));
            }
            p.mass()
        })
    });
    // Materialized: convert to a histogram first, then floor repeatedly.
    g.bench_function("materialized_floor_chain", |b| {
        b.iter(|| {
            let mut h = black_box(&exact).to_histogram(64).unwrap();
            for i in 0..5 {
                h = h.floor_region(&RegionSet::from_interval(Interval::at_least(55.0 - i as f64)));
            }
            h.mass()
        })
    });
    // Accuracy: the symbolic floor is exact.
    let symbolic = exact.floor_region(&region);
    let materialized = Pdf1::Histogram(exact.to_histogram(64).unwrap().floor_region(&region));
    assert!((symbolic.mass() - materialized.mass()).abs() < 0.02);
    g.finish();
}

fn bench_eager_vs_lazy_collapse(c: &mut Criterion) {
    let mut g = c.benchmark_group("collapse_policy_500");
    g.sample_size(20);
    for (name, opts) in [
        ("eager", ExecOptions::default()),
        ("lazy", ExecOptions { eager_collapse: false, ..ExecOptions::default() }),
        ("no_histories", ExecOptions { use_histories: false, ..ExecOptions::default() }),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut reg = HistoryRegistry::new();
                let base = joint_table(500, &mut reg);
                let mut ta = project(&base, &["id", "a"], &reg, &opts).unwrap();
                ta.name = "Ta".into();
                let sel =
                    select(&base, &Predicate::cmp("b", CmpOp::Gt, 20.0), &reg, &opts).unwrap();
                let mut tb = project(&sel, &["id", "b"], &reg, &opts).unwrap();
                tb.name = "Tb".into();
                orion_core::join::join(
                    black_box(&ta),
                    &tb,
                    Some(&Predicate::cmp_cols("Ta.id", CmpOp::Eq, "Tb.id")),
                    &reg,
                    &opts,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_merge_resolution(c: &mut Criterion) {
    // Continuous dependent merges materialize on a grid; resolution trades
    // accuracy for time quadratically (cells = res^2).
    let mut g = c.benchmark_group("merge_grid_resolution");
    let joint = JointPdf::independent(vec![
        Pdf1::gaussian(0.0, 1.0).unwrap(),
        Pdf1::gaussian(0.5, 2.0).unwrap(),
    ])
    .unwrap();
    for res in [16usize, 32, 64, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(res), &res, |b, &res| {
            b.iter(|| {
                black_box(&joint).floor_predicate(&[0, 1], res, |v| v[0] < v[1]).unwrap().mass()
            })
        });
    }
    // Accuracy reference: P(X < Y) for N(0,1), N(0.5,2) is
    // Phi(0.5 / sqrt(3)) ≈ 0.6136.
    let truth = 0.613_707;
    let coarse = joint.floor_predicate(&[0, 1], 16, |v| v[0] < v[1]).unwrap().mass();
    let fine = joint.floor_predicate(&[0, 1], 128, |v| v[0] < v[1]).unwrap().mass();
    assert!((fine - truth).abs() < (coarse - truth).abs() + 1e-3);
    g.finish();
}

fn bench_support_index(c: &mut Criterion) {
    // Indexed vs full-scan probabilistic threshold range queries: the
    // paper's companion indexing line of work, reduced to support pruning.
    use orion_core::index::SupportIndex;
    use orion_core::threshold::{threshold_pred, threshold_pred_masked};
    let mut g = c.benchmark_group("threshold_index_20k");
    g.sample_size(20);
    let mut reg = HistoryRegistry::new();
    let schema = ProbSchema::new(
        vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
        vec![],
    )
    .unwrap();
    let mut rel = Relation::new("r", schema);
    let mut workload = orion_workload::SensorWorkload::new(5);
    for r in workload.readings(20_000) {
        rel.insert_simple(&mut reg, &[("rid", Value::Int(r.rid))], &[("v", r.pdf())]).unwrap();
    }
    let idx = SupportIndex::build(&rel, "v").unwrap();
    let iv = Interval::new(40.0, 44.0);
    let opts = ExecOptions::default();
    let pred = Predicate::And(vec![
        Predicate::cmp("v", CmpOp::Ge, iv.lo),
        Predicate::cmp("v", CmpOp::Le, iv.hi),
    ]);
    // Probe the prebuilt index, then evaluate only its candidates.
    g.bench_function("indexed", |b| {
        b.iter(|| {
            let mut mask = vec![false; rel.len()];
            for ti in idx.candidates(&iv, 0.5) {
                mask[ti] = true;
            }
            threshold_pred_masked(black_box(&rel), &pred, CmpOp::Gt, 0.5, Some(&mask), &reg, &opts)
                .unwrap()
        })
    });
    // What a session runs: the support fallback, its index cached per
    // table version after the first iteration.
    let session = ExecOptions { indexes: Some(IndexHandle::new()), ..ExecOptions::default() };
    g.bench_function("support_fallback", |b| {
        b.iter(|| threshold_pred(black_box(&rel), &pred, CmpOp::Gt, 0.5, &reg, &session).unwrap())
    });
    g.bench_function("full_scan", |b| {
        b.iter(|| threshold_pred(black_box(&rel), &pred, CmpOp::Gt, 0.5, &reg, &opts).unwrap())
    });
    g.bench_function("build_index", |b| {
        b.iter(|| SupportIndex::build(black_box(&rel), "v").unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_symbolic_vs_materialized_floors,
    bench_eager_vs_lazy_collapse,
    bench_merge_resolution,
    bench_support_index
);
criterion_main!(benches);

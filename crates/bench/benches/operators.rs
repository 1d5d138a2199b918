//! Benchmarks of the relational operators over in-memory relations:
//! selection fast path vs general path, projection, hash vs nested-loop
//! join, thresholds, and the possible-worlds reference engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orion_core::prelude::*;
use orion_core::project::project;
use orion_core::select::select;
use orion_core::threshold::threshold_pred;
use orion_pdf::prelude::*;
use orion_workload::SensorWorkload;
use std::hint::black_box;

fn sensor_relation(n: usize, reg: &mut HistoryRegistry) -> Relation {
    let schema = ProbSchema::new(
        vec![("rid", ColumnType::Int, false), ("v", ColumnType::Real, true)],
        vec![],
    )
    .unwrap();
    let mut rel = Relation::new("readings", schema);
    let mut w = SensorWorkload::new(7);
    for r in w.readings(n) {
        rel.insert_simple(reg, &[("rid", Value::Int(r.rid))], &[("v", r.pdf())]).unwrap();
    }
    rel
}

fn keyed_pair(n: usize, reg: &mut HistoryRegistry) -> (Relation, Relation) {
    let mk = |name: &str, col: &str, reg: &mut HistoryRegistry| {
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), (col, ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new(name, schema);
        for id in 0..n as i64 {
            rel.insert_simple(
                reg,
                &[("id", Value::Int(id))],
                &[(col, Pdf1::discrete(vec![(id as f64, 0.5), (id as f64 + 1.0, 0.5)]).unwrap())],
            )
            .unwrap();
        }
        rel
    };
    (mk("L", "x", reg), mk("R", "y", reg))
}

fn bench_selection(c: &mut Criterion) {
    let mut g = c.benchmark_group("select_1k");
    let mut reg = HistoryRegistry::new();
    let rel = sensor_relation(1_000, &mut reg);
    let opts = ExecOptions::default();
    // Fast path: single-attribute comparison keeps symbolic floors.
    g.bench_function("fast_path_symbolic_floor", |b| {
        b.iter(|| {
            select(black_box(&rel), &Predicate::cmp("v", CmpOp::Lt, 50.0), &reg, &opts).unwrap()
        })
    });
    // General path: an OR forces the merge + predicate-floor machinery.
    let or_pred = Predicate::Or(vec![
        Predicate::cmp("v", CmpOp::Lt, 25.0),
        Predicate::cmp("v", CmpOp::Gt, 75.0),
    ]);
    g.bench_function("general_path_grid_floor", |b| {
        b.iter(|| select(black_box(&rel), &or_pred, &reg, &opts).unwrap())
    });
    // Certain-only path.
    g.bench_function("certain_only", |b| {
        b.iter(|| {
            select(black_box(&rel), &Predicate::cmp("rid", CmpOp::Le, 500i64), &reg, &opts).unwrap()
        })
    });
    g.finish();
}

fn bench_projection_and_threshold(c: &mut Criterion) {
    let mut g = c.benchmark_group("project_threshold_1k");
    let mut reg = HistoryRegistry::new();
    let rel = sensor_relation(1_000, &mut reg);
    let opts = ExecOptions::default();
    g.bench_function("project", |b| {
        b.iter(|| project(black_box(&rel), &["rid"], &reg, &opts).unwrap())
    });
    let pred = Predicate::And(vec![
        Predicate::cmp("v", CmpOp::Ge, 40.0),
        Predicate::cmp("v", CmpOp::Le, 60.0),
    ]);
    g.bench_function("threshold_range_query", |b| {
        b.iter(|| threshold_pred(black_box(&rel), &pred, CmpOp::Gt, 0.5, &reg, &opts).unwrap())
    });
    g.finish();
}

fn bench_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("join");
    g.sample_size(20);
    let opts = ExecOptions::default();
    for n in [100usize, 400] {
        let mut reg = HistoryRegistry::new();
        let (l, r) = keyed_pair(n, &mut reg);
        let pred = Predicate::And(vec![
            Predicate::cmp_cols("L.id", CmpOp::Eq, "R.id"),
            Predicate::cmp_cols("x", CmpOp::Le, "y"),
        ]);
        g.bench_with_input(BenchmarkId::new("hash_equi", n), &n, |b, _| {
            b.iter(|| {
                orion_core::join::join(black_box(&l), black_box(&r), Some(&pred), &reg, &opts)
                    .unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |b, _| {
            b.iter(|| {
                orion_core::join::join_nested_loop(
                    black_box(&l),
                    black_box(&r),
                    Some(&pred),
                    &reg,
                    &opts,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_pws_reference(c: &mut Criterion) {
    // The brute-force engine is exponential; benchmark the largest
    // practical instance to document the gap the efficient model closes.
    let mut g = c.benchmark_group("pws_reference");
    g.sample_size(10);
    let mut reg = HistoryRegistry::new();
    let schema =
        ProbSchema::new(vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)], vec![])
            .unwrap();
    let mut rel = Relation::new("T", schema);
    for i in 0..5 {
        rel.insert_simple(
            &mut reg,
            &[],
            &[
                ("a", Pdf1::discrete(vec![(i as f64, 0.5), (i as f64 + 1.0, 0.5)]).unwrap()),
                ("b", Pdf1::discrete(vec![(0.0, 0.5), (1.0, 0.5)]).unwrap()),
            ],
        )
        .unwrap();
    }
    let mut tables = std::collections::HashMap::new();
    tables.insert("T".to_string(), rel);
    let plan = Plan::scan("T").select(Predicate::cmp_cols("b", CmpOp::Lt, "a"));
    g.bench_function("enumerate_2^10_worlds", |b| {
        b.iter(|| orion_core::pws::pws_row_distribution(black_box(&plan), &tables).unwrap())
    });
    g.bench_function("efficient_engine_same_query", |b| {
        b.iter(|| {
            orion_core::plan::execute(black_box(&plan), &tables, &reg, &ExecOptions::default())
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_selection,
    bench_projection_and_threshold,
    bench_joins,
    bench_pws_reference
);
criterion_main!(benches);

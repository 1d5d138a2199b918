//! Monte-Carlo conformance checking for **continuous** data.
//!
//! The brute-force possible-worlds engine ([`crate::pws`]) certifies the
//! operators on finite discrete inputs. Continuous pdfs have uncountably
//! many worlds, so this module *samples* worlds instead: each base pdf
//! node draws a concrete value (or absence, for partial pdfs), the query
//! runs classically on the sampled world, and presence frequencies of
//! result rows — keyed by their certain columns — are compared against the
//! engine's computed existence probabilities. Agreement within Monte-Carlo
//! error certifies the continuous path (symbolic floors, grid
//! materialization, history-aware merging) end to end.

use crate::collapse;
use crate::error::{EngineError, Result};
use crate::history::HistoryRegistry;
use crate::plan::Plan;
use crate::pws::{run_classical, CanonValue, ConcreteTable};
use crate::relation::Relation;
use crate::select::ExecOptions;
use crate::value::Value;
use orion_pdf::sample::Uniform;
use std::collections::HashMap;

/// Frequency (or probability) of result keys, where a key is the canonical
/// form of a row's certain columns.
pub type KeyDistribution = HashMap<Vec<CanonValue>, f64>;

/// Samples one concrete world from the base tables.
fn sample_world(
    tables: &HashMap<String, Relation>,
    rng: &mut impl Uniform,
) -> HashMap<String, ConcreteTable> {
    let mut world = HashMap::new();
    let mut names: Vec<&String> = tables.keys().collect();
    names.sort();
    for name in names {
        let rel = &tables[name];
        let mut rows = Vec::new();
        'tuples: for t in rel.tuples.iter() {
            let mut row = t.certain.clone();
            for n in &t.nodes {
                let Some(point) = n.joint.sample(rng) else {
                    continue 'tuples; // tuple absent in this world
                };
                for (dim, nd) in n.dims.iter().enumerate() {
                    let Some(attr) = nd.column else { continue };
                    if let Some(pos) = rel.schema.columns().iter().position(|c| c.id == attr) {
                        row[pos] = Value::Real(point[dim]);
                    }
                }
            }
            rows.push(row);
        }
        world.insert(
            name.clone(),
            ConcreteTable { name: name.clone(), columns: rel.schema.columns().to_vec(), rows },
        );
    }
    world
}

/// Extracts the certain-column key of a result row.
fn key_of(table: &ConcreteTable, row: &[Value]) -> Vec<CanonValue> {
    table
        .columns
        .iter()
        .zip(row)
        .filter(|(c, _)| !c.uncertain)
        .map(|(_, v)| CanonValue::from(v))
        .collect()
}

/// Monte-Carlo estimate: for each distinct certain-column key, the
/// fraction of sampled worlds in which the query emits a row with that
/// key. Keys never emitted are absent from the map.
pub fn mc_key_distribution(
    plan: &Plan,
    tables: &HashMap<String, Relation>,
    samples: usize,
    rng: &mut impl Uniform,
) -> Result<KeyDistribution> {
    if plan.has_threshold() {
        return Err(EngineError::Operator(
            "threshold operators are defined outside possible-worlds semantics".into(),
        ));
    }
    if samples == 0 {
        return Err(EngineError::Operator("need at least one sample".into()));
    }
    let mut counts: HashMap<Vec<CanonValue>, usize> = HashMap::new();
    for _ in 0..samples {
        let world = sample_world(tables, rng);
        let out = run_classical(plan, &world)?;
        let mut seen: Vec<Vec<CanonValue>> = Vec::new();
        for row in &out.rows {
            let key = key_of(&out, row);
            if !seen.contains(&key) {
                seen.push(key.clone());
                *counts.entry(key).or_insert(0) += 1;
            }
        }
    }
    Ok(counts.into_iter().map(|(k, c)| (k, c as f64 / samples as f64)).collect())
}

/// The engine side: executes the plan with the probabilistic operators and
/// returns, per certain-column key, the (history-aware) existence
/// probability of the result tuple carrying it.
pub fn engine_key_distribution(
    plan: &Plan,
    tables: &HashMap<String, Relation>,
    reg: &HistoryRegistry,
    opts: &ExecOptions,
) -> Result<KeyDistribution> {
    let rel = crate::plan::execute(plan, tables, reg, opts)?;
    let mut out = KeyDistribution::new();
    for t in rel.tuples.iter() {
        let prob = if opts.use_histories {
            collapse::existence_prob(t, reg, opts.resolution)?
        } else {
            t.naive_existence()
        };
        let key: Vec<CanonValue> = rel
            .schema
            .columns()
            .iter()
            .zip(&t.certain)
            .filter(|(c, _)| !c.uncertain)
            .map(|(_, v)| CanonValue::from(v))
            .collect();
        *out.entry(key).or_insert(0.0) += prob;
    }
    // Keys with (numerically) zero probability are unobservable.
    out.retain(|_, p| *p > 1e-12);
    Ok(out)
}

/// Maximum absolute deviation between a Monte-Carlo estimate and the
/// engine's probabilities (missing keys count at full weight).
pub fn key_distribution_distance(a: &KeyDistribution, b: &KeyDistribution) -> f64 {
    let mut worst = 0.0f64;
    for (k, &pa) in a {
        worst = worst.max((pa - b.get(k).copied().unwrap_or(0.0)).abs());
    }
    for (k, &pb) in b {
        if !a.contains_key(k) {
            worst = worst.max(pb);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CmpOp, Predicate};
    use crate::schema::{ColumnType, ProbSchema};
    use orion_pdf::prelude::*;
    use orion_pdf::sample::XorShift;

    const SAMPLES: usize = 30_000;
    /// ~4 standard deviations of a Bernoulli(1/2) estimate at 30 K samples.
    const MC_TOL: f64 = 0.013;

    fn gaussian_table() -> (HashMap<String, Relation>, HistoryRegistry) {
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("g", schema);
        for (id, m, v) in [(1, 0.0, 1.0), (2, 2.0, 4.0), (3, -1.0, 0.25)] {
            rel.insert_simple(
                &mut reg,
                &[("id", Value::Int(id))],
                &[("x", Pdf1::gaussian(m, v).unwrap())],
            )
            .unwrap();
        }
        let mut tables = HashMap::new();
        tables.insert("g".to_string(), rel);
        (tables, reg)
    }

    #[test]
    fn continuous_selection_conforms() {
        let (tables, reg) = gaussian_table();
        let plan = Plan::scan("g").select(Predicate::cmp("x", CmpOp::Lt, 0.5));
        let mut rng = XorShift::new(42);
        let mc = mc_key_distribution(&plan, &tables, SAMPLES, &mut rng).unwrap();
        let eng = engine_key_distribution(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
        let d = key_distribution_distance(&mc, &eng);
        assert!(d < MC_TOL, "deviation {d}\nmc {mc:?}\nengine {eng:?}");
    }

    #[test]
    fn continuous_join_conforms() {
        // x < y across two Gaussian tables: exercises the grid
        // materialization path of the dependent floor.
        let mut reg = HistoryRegistry::new();
        let mut tables = HashMap::new();
        for (name, col, m, v) in [("l", "x", 0.0, 1.0), ("r", "y", 1.0, 1.0)] {
            let schema = ProbSchema::new(
                vec![("id", ColumnType::Int, false), (col, ColumnType::Real, true)],
                vec![],
            )
            .unwrap();
            let mut rel = Relation::new(name, schema);
            rel.insert_simple(
                &mut reg,
                &[("id", Value::Int(1))],
                &[(col, Pdf1::gaussian(m, v).unwrap())],
            )
            .unwrap();
            tables.insert(name.to_string(), rel);
        }
        let plan = Plan::scan("l")
            .join_on(Plan::scan("r"), Some(Predicate::cmp_cols("x", CmpOp::Lt, "y")));
        let mut rng = XorShift::new(7);
        let mc = mc_key_distribution(&plan, &tables, SAMPLES, &mut rng).unwrap();
        let eng = engine_key_distribution(
            &plan,
            &tables,
            &reg,
            &ExecOptions { resolution: 96, ..ExecOptions::default() },
        )
        .unwrap();
        // P(X < Y) for N(0,1) vs N(1,1) = Phi(1/sqrt(2)) ≈ 0.7602.
        let d = key_distribution_distance(&mc, &eng);
        assert!(d < MC_TOL + 0.01, "deviation {d}\nmc {mc:?}\nengine {eng:?}");
        let p = eng.values().next().copied().unwrap();
        assert!((p - 0.760_25).abs() < 0.02, "engine P(X<Y) = {p}");
    }

    #[test]
    fn fig3_shape_with_continuous_data_conforms() {
        // Projections of a correlated continuous joint, rejoined: the
        // history machinery on the grid path.
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![
                ("id", ColumnType::Int, false),
                ("a", ColumnType::Real, true),
                ("b", ColumnType::Real, true),
            ],
            vec![vec!["a", "b"]],
        )
        .unwrap();
        let mut rel = Relation::new("t", schema);
        // Correlated band: b concentrated near a.
        let dims =
            vec![GridDim::over(0.0, 10.0, 16).unwrap(), GridDim::over(0.0, 10.0, 16).unwrap()];
        let grid =
            JointGrid::from_density(dims, 1.0, |p| (-(p[1] - p[0]) * (p[1] - p[0])).exp()).unwrap();
        rel.insert(
            &mut reg,
            &[("id", Value::Int(1))],
            vec![(vec!["a", "b"], JointPdf::from_grid(grid))],
        )
        .unwrap();
        let mut tables = HashMap::new();
        tables.insert("t".to_string(), rel);

        let ta = Plan::scan("t").project(&["id", "a"]);
        let tb = Plan::scan("t").select(Predicate::cmp("b", CmpOp::Gt, 5.0)).project(&["id", "b"]);
        let plan =
            ta.join_on(tb, Some(Predicate::cmp_cols("pi(t).id", CmpOp::Eq, "pi(sigma(t)).id")));
        let mut rng = XorShift::new(99);
        let mc = mc_key_distribution(&plan, &tables, SAMPLES, &mut rng).unwrap();
        let eng = engine_key_distribution(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
        let d = key_distribution_distance(&mc, &eng);
        assert!(d < MC_TOL + 0.01, "deviation {d}\nmc {mc:?}\nengine {eng:?}");
    }

    #[test]
    fn partial_pdfs_reduce_presence_frequency() {
        let mut reg = HistoryRegistry::new();
        let schema = ProbSchema::new(
            vec![("id", ColumnType::Int, false), ("x", ColumnType::Real, true)],
            vec![],
        )
        .unwrap();
        let mut rel = Relation::new("p", schema);
        rel.insert_simple(
            &mut reg,
            &[("id", Value::Int(1))],
            &[("x", Pdf1::discrete(vec![(1.0, 0.3)]).unwrap())],
        )
        .unwrap();
        let mut tables = HashMap::new();
        tables.insert("p".to_string(), rel);
        let plan = Plan::scan("p");
        let mut rng = XorShift::new(5);
        let mc = mc_key_distribution(&plan, &tables, SAMPLES, &mut rng).unwrap();
        let p = mc.values().next().copied().unwrap_or(0.0);
        assert!((p - 0.3).abs() < MC_TOL, "presence {p}");
    }

    #[test]
    fn threshold_plans_rejected() {
        let (tables, _) = gaussian_table();
        let plan =
            Plan::ThresholdAttrs(Box::new(Plan::scan("g")), vec!["x".into()], CmpOp::Gt, 0.5);
        let mut rng = XorShift::new(1);
        assert!(mc_key_distribution(&plan, &tables, 10, &mut rng).is_err());
        assert!(mc_key_distribution(&Plan::scan("g"), &tables, 0, &mut rng).is_err());
    }
}

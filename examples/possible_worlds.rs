//! Possible worlds semantics, end to end: reproduces the paper's Tables
//! II/III and Section III-C example, then certifies the engine against the
//! brute-force possible-worlds reference for a select-project-join
//! pipeline.
//!
//! Run with: `cargo run -p orion-examples --bin possible_worlds`

use orion_core::prelude::*;
use orion_core::pws::{
    conformance_report, distribution_distance, pws_row_distribution, CanonValue,
};
use orion_examples::banner;
use orion_pdf::prelude::*;
use std::collections::HashMap;

fn show_distribution(dist: &HashMap<Vec<CanonValue>, f64>) {
    let mut rows: Vec<(String, f64)> = dist
        .iter()
        .map(|(row, p)| {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    CanonValue::Real(bits) => format!("{}", f64::from_bits(*bits)),
                    CanonValue::Int(i) => i.to_string(),
                    other => format!("{other:?}"),
                })
                .collect();
            (format!("({})", cells.join(", ")), *p)
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    for (r, p) in rows {
        println!("  {r}  Pr = {p:.4}");
    }
}

fn main() {
    banner("The paper's Table II relation");
    let mut reg = HistoryRegistry::new();
    let schema =
        ProbSchema::new(vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)], vec![])
            .unwrap();
    let mut rel = Relation::new("T", schema);
    rel.insert_simple(
        &mut reg,
        &[],
        &[
            ("a", Pdf1::discrete(vec![(0.0, 0.1), (1.0, 0.9)]).unwrap()),
            ("b", Pdf1::discrete(vec![(1.0, 0.6), (2.0, 0.4)]).unwrap()),
        ],
    )
    .unwrap();
    rel.insert_simple(&mut reg, &[], &[("a", Pdf1::certain(7.0)), ("b", Pdf1::certain(3.0))])
        .unwrap();
    let mut tables = HashMap::new();
    tables.insert("T".to_string(), rel);

    banner("Table III: row-presence probabilities across all worlds");
    let dist = pws_row_distribution(&Plan::scan("T"), &tables).unwrap();
    show_distribution(&dist);

    banner("Section III-C: sigma_(a < b), engine vs possible worlds");
    let plan = Plan::scan("T").select(Predicate::cmp_cols("a", CmpOp::Lt, "b"));
    let (truth, engine) =
        conformance_report(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
    println!("possible-worlds ground truth:");
    show_distribution(&truth);
    println!("engine result:");
    show_distribution(&engine);
    println!("max deviation: {:.2e}", distribution_distance(&truth, &engine));

    banner("A full select-project pipeline is still PWS-consistent");
    let plan = Plan::scan("T").select(Predicate::cmp("b", CmpOp::Gt, 1i64)).project(&["a"]);
    let (truth, engine) =
        conformance_report(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
    println!("possible-worlds ground truth:");
    show_distribution(&truth);
    println!("engine result:");
    show_distribution(&engine);
    let d = distribution_distance(&truth, &engine);
    println!("max deviation: {d:.2e}");
    assert!(d < 1e-9, "engine must conform to possible worlds semantics");
    println!("\nTheorems 1 & 2 hold on this input: closed and consistent under PWS.");
}

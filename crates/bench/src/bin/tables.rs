//! Regenerates the paper's worked tables and examples through the real
//! engine: Table I (sensor relation), Tables II/III (possible worlds), the
//! Section III-C selection, Table IV (partial pdfs vs NULL), and the
//! Figure 3 history example.

use orion_core::plan::execute;
use orion_core::prelude::*;
use orion_core::pws::{engine_row_distribution, pws_row_distribution};
use orion_pdf::prelude::*;
use orion_sql::{render_relation, Database, Output};
use std::collections::HashMap;

fn main() {
    table1();
    tables2_and_3();
    section3c_selection();
    table4();
    fig3();
}

fn table1() {
    println!("== Table I: sensor database with symbolic Gaussian pdfs ==");
    let mut db = Database::new();
    db.execute("CREATE TABLE sensors (id INT, location REAL UNCERTAIN)").unwrap();
    db.execute(
        "INSERT INTO sensors VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
         (3, GAUSSIAN(13, 1))",
    )
    .unwrap();
    match db.execute("SELECT * FROM sensors").unwrap() {
        Output::Table(rel) => println!("{}\n", render_relation(&rel).unwrap()),
        _ => unreachable!(),
    }
}

fn table2_relation() -> (HashMap<String, Relation>, HistoryRegistry) {
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
    (tables, reg)
}

fn tables2_and_3() {
    println!("== Tables II + III: probabilistic relation and its possible worlds ==");
    let (tables, _) = table2_relation();
    let dist = pws_row_distribution(&Plan::scan("T"), &tables).unwrap();
    let mut rows: Vec<(String, f64)> = dist
        .iter()
        .map(|(row, p)| {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    orion_core::pws::CanonValue::Real(bits) => {
                        format!("{}", f64::from_bits(*bits))
                    }
                    other => format!("{other:?}"),
                })
                .collect();
            (format!("({})", cells.join(", ")), *p)
        })
        .collect();
    rows.sort_by(|x, y| x.0.cmp(&y.0));
    for (row, p) in rows {
        println!("  row {row}  Pr = {p:.2}");
    }
    println!();
}

fn section3c_selection() {
    println!("== Section III-C: sigma_(a < b) over Table II ==");
    let (tables, reg) = table2_relation();
    let plan = Plan::scan("T").select(Predicate::cmp_cols("a", CmpOp::Lt, "b"));
    let out = execute(&plan, &tables, &reg, &ExecOptions::default()).unwrap();
    println!("  result tuples: {}", out.len());
    let t = &out.tuples[0];
    let n = &t.nodes[0];
    println!("  joint pdf (mass {:.2}):", n.mass());
    let j = n.joint.enumerate().unwrap();
    for (v, p) in j.points() {
        println!("    ({}, {}) : {:.2}", v[0], v[1], p);
    }
    let engine = engine_row_distribution(&out, &reg, &ExecOptions::default()).unwrap();
    let truth = pws_row_distribution(&plan, &tables).unwrap();
    let dist = orion_core::pws::distribution_distance(&truth, &engine);
    println!("  PWS conformance distance: {dist:.2e}\n");
}

fn table4() {
    println!("== Table IV: missing attribute values vs missing tuples ==");
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b REAL UNCERTAIN, c REAL UNCERTAIN, CORRELATED (b, c))")
        .unwrap();
    // Row 1: tuple certainly exists (mass 1).
    db.execute("INSERT INTO t VALUES (1, JOINT((2, 3):0.8, (9, 9):0.2))").unwrap();
    // Row 2: closed-world partial pdf; the tuple exists with probability 0.8.
    db.execute("INSERT INTO t VALUES (2, JOINT((4, 7):0.2, (4.1, 3.7):0.6))").unwrap();
    match db.execute("SELECT * FROM t").unwrap() {
        Output::Table(rel) => {
            println!("{}", render_relation(&rel).unwrap());
            println!("  tuple 2 existence probability: {:.2}\n", rel.tuples[1].naive_existence());
        }
        _ => unreachable!(),
    }
}

fn fig3() {
    println!("== Figure 3: histories make the join correct ==");
    let mut reg = HistoryRegistry::new();
    let schema = ProbSchema::new(
        vec![("a", ColumnType::Int, true), ("b", ColumnType::Int, true)],
        vec![vec!["a", "b"]],
    )
    .unwrap();
    let mut t = Relation::new("T", schema);
    t.insert(
        &mut reg,
        &[],
        vec![(
            vec!["a", "b"],
            JointPdf::from_points(
                JointDiscrete::from_points(2, vec![(vec![4.0, 5.0], 0.9), (vec![2.0, 3.0], 0.1)])
                    .unwrap(),
            ),
        )],
    )
    .unwrap();
    t.insert(
        &mut reg,
        &[],
        vec![(
            vec!["a", "b"],
            JointPdf::from_points(
                JointDiscrete::from_points(2, vec![(vec![7.0, 3.0], 0.7)]).unwrap(),
            ),
        )],
    )
    .unwrap();
    let opts = ExecOptions::default();
    let mut ta = orion_core::project::project(&t, &["a"], &reg, &opts).unwrap();
    ta.name = "Ta".to_string();
    let sel =
        orion_core::select::select(&t, &Predicate::cmp("b", CmpOp::Gt, 4i64), &reg, &opts).unwrap();
    let mut tb = orion_core::project::project(&sel, &["b"], &reg, &opts).unwrap();
    tb.name = "Tb".to_string();
    let joined = orion_core::join::join(&ta, &tb, None, &reg, &opts).unwrap();
    println!("  with histories (correct, the paper's T2):");
    print_rows(&joined, &reg, &opts);
    let naive_opts = ExecOptions { use_histories: false, ..ExecOptions::default() };
    let joined_naive = orion_core::join::join(&ta, &tb, None, &reg, &naive_opts).unwrap();
    println!("  without histories (incorrect, the paper's T1):");
    print_rows(&joined_naive, &reg, &naive_opts);
}

/// Prints the visible-row distribution of a small discrete relation.
fn print_rows(rel: &Relation, reg: &HistoryRegistry, opts: &ExecOptions) {
    let dist = engine_row_distribution(rel, reg, opts).unwrap();
    let mut rows: Vec<(String, f64)> = dist
        .iter()
        .map(|(row, p)| {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    orion_core::pws::CanonValue::Real(bits) => {
                        format!("{}", f64::from_bits(*bits))
                    }
                    other => format!("{other:?}"),
                })
                .collect();
            (format!("({})", cells.join(", ")), *p)
        })
        .collect();
    rows.sort_by(|x, y| x.0.cmp(&y.0));
    for (row, p) in rows {
        println!("    (a, b) = {row} : {p:.2}");
    }
}

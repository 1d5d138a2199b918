//! Tuple uncertainty: mutually exclusive alternatives through shared
//! phantom ancestors — the paper's claim that the attribute-uncertainty
//! model subsumes tuple-uncertainty models ("multiple tuples can have
//! constraints such as mutual exclusion among them").
//!
//! An OCR pipeline produced two conflicting readings of the same invoice
//! line; at most one is real. The alternatives live as ordinary tuples
//! whose existence derives from one shared selector variable, and every
//! downstream operator — selection, join, the possible-worlds engine —
//! handles the constraint through the ordinary history machinery.
//!
//! Run with: `cargo run -p orion-examples --bin tuple_uncertainty`

use orion_core::plan::Plan;
use orion_core::prelude::*;
use orion_core::pws::pws_row_distribution_via_ancestors;
use orion_examples::banner;
use orion_pdf::prelude::*;
use std::collections::HashMap;

fn main() {
    banner("OCR alternatives as a mutual-exclusion group");
    let mut reg = HistoryRegistry::new();
    let schema = ProbSchema::new(
        vec![("line", ColumnType::Int, false), ("amount", ColumnType::Real, true)],
        vec![],
    )
    .unwrap();
    let mut invoices = Relation::new("invoices", schema);
    // Reading A: $100 +- small OCR noise (confidence 0.6).
    // Reading B: $1000 +- noise (confidence 0.3). With probability 0.1 the
    // line is spurious and neither reading is real.
    invoices
        .insert_mutex_group(
            &mut reg,
            vec![
                (
                    vec![("line", Value::Int(1))],
                    vec![("amount", Pdf1::discrete(vec![(100.0, 0.8), (101.0, 0.2)]).unwrap())],
                ),
                (
                    vec![("line", Value::Int(2))],
                    vec![("amount", Pdf1::discrete(vec![(1000.0, 1.0)]).unwrap())],
                ),
            ],
            &[0.6, 0.3],
        )
        .unwrap();
    let opts = ExecOptions::default();
    for (i, t) in invoices.tuples.iter().enumerate() {
        let p = orion_core::collapse::existence_prob(t, &reg, opts.resolution).unwrap();
        println!("  alternative {} exists with probability {:.2}", i + 1, p);
    }
    println!("  P(neither) = 0.10\n");

    banner("Selection composes with the constraint");
    let sel = orion_core::select::select(
        &invoices,
        &Predicate::cmp("amount", CmpOp::Lt, 500.0),
        &reg,
        &opts,
    )
    .unwrap();
    println!(
        "  sigma(amount < 500): {} tuple(s); alternative A survives with p = {:.2}\n",
        sel.len(),
        orion_core::collapse::existence_prob(&sel.tuples[0], &reg, opts.resolution).unwrap()
    );

    banner("The possible-worlds engine sees the exclusion exactly");
    let mut tables = HashMap::new();
    tables.insert("invoices".to_string(), invoices);
    // Pair the table with itself: worlds where both alternatives coexist
    // must have probability zero.
    let both = Plan::scan("invoices")
        .project(&["line"])
        .join_on(Plan::scan("invoices").project(&["line"]), None);
    let dist = pws_row_distribution_via_ancestors(&both, &tables, &reg).unwrap();
    let mut rows: Vec<(String, f64)> = dist.iter().map(|(k, p)| (format!("{k:?}"), *p)).collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    for (k, p) in rows {
        println!("  pair {k} : {p:.2}");
    }
    println!("  (no (1,2) or (2,1) pair: the alternatives never coexist)");
}

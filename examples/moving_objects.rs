//! Moving objects with correlated 2-D position uncertainty: the paper's
//! Section II-A motivation for *joint* pdfs over dependency sets.
//!
//! An object's x/y position error is correlated along its heading; storing
//! two independent 1-D pdfs would misestimate region probabilities. This
//! example quantifies that, runs range selections that floor the joint,
//! and projects to show phantom-dimension retention.
//!
//! Run with: `cargo run -p orion-examples --bin moving_objects`

use orion_core::prelude::*;
use orion_core::project::project;
use orion_core::select::select;
use orion_examples::banner;
use orion_pdf::prelude::*;
use orion_workload::MovingObjectsWorkload;

fn main() {
    banner("Fleet of 20 objects with correlated (x, y) uncertainty");
    let mut w = MovingObjectsWorkload::new(77);
    let mut reg = HistoryRegistry::new();
    let fleet = w.relation(20, &mut reg);
    println!("objects: {}   dependency sets per tuple: 1 (joint over x, y)\n", fleet.len());

    banner("Correlation matters: joint vs independent-marginals probability");
    let t = &fleet.tuples[0];
    let node = &t.nodes[0];
    let (ex, ey) = (node.joint.expected(0).unwrap(), node.joint.expected(1).unwrap());
    // A diagonal box aligned with the heading captures more joint mass than
    // the product of its marginals suggests.
    let box_q = [(0, Interval::new(ex - 1.0, ex + 1.0)), (1, Interval::new(ey - 1.0, ey + 1.0))];
    let joint_p = node.joint.box_prob(&box_q);
    let mx = node.joint.marginal1(0).unwrap();
    let my = node.joint.marginal1(1).unwrap();
    let indep_p = mx.range_prob(&box_q[0].1) * my.range_prob(&box_q[1].1);
    println!("P((x,y) in 2x2 box around the mean)");
    println!("  with the joint pdf       : {joint_p:.4}");
    println!("  independence assumption  : {indep_p:.4}");
    println!("  relative error of independence: {:+.1}%\n", (indep_p / joint_p - 1.0) * 100.0);

    banner("Window query: objects west of x = 50 (floors the joint)");
    let west = select(&fleet, &Predicate::cmp("x", CmpOp::Lt, 50.0), &reg, &ExecOptions::default())
        .unwrap();
    println!("{} of {} objects have mass west of the line:", west.len(), fleet.len());
    for t in west.tuples.iter().take(5) {
        let Value::Int(oid) = t.certain[0] else { continue };
        println!("  object {oid}: P(x < 50) = {:.4}", t.naive_existence());
    }
    println!();

    banner("Projection keeps the correlated y as a phantom dimension");
    let xs = project(&west, &["oid", "x"], &reg, &ExecOptions::default()).unwrap();
    let t = &xs.tuples[0];
    println!(
        "visible columns: {:?}",
        xs.schema.columns().iter().map(|c| &c.name).collect::<Vec<_>>()
    );
    println!(
        "node dimensions: {} ({} visible, {} phantom)",
        t.nodes[0].dims.len(),
        t.nodes[0].dims.iter().filter(|d| d.column.is_some()).count(),
        t.nodes[0].dims.iter().filter(|d| d.column.is_none()).count(),
    );
    println!("existence probability preserved: {:.4}", t.naive_existence());

    banner("Corridor query via the general floor (x and y correlated)");
    // Objects probably inside the diagonal corridor |y - x| < 10. The
    // predicate language has no arithmetic, so floor the joint directly —
    // the same primitive selection Case 2(b) uses internally.
    let mut in_corridor = 0;
    for t in fleet.tuples.iter() {
        let n = &t.nodes[0];
        let floored = n.joint.floor_predicate(&[0, 1], 32, |p| (p[1] - p[0]).abs() < 10.0).unwrap();
        if floored.mass() > 0.5 {
            in_corridor += 1;
        }
    }
    println!("objects with P(|y - x| < 10) > 0.5: {in_corridor} of {}", fleet.len());
}

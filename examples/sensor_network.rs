//! Sensor network monitoring: a fleet of temperature sensors with
//! per-device Gaussian error models, queried for alarm conditions.
//!
//! Demonstrates the evaluation workload of the paper's Section IV at
//! application scale: symbolic pdfs in storage, threshold range queries,
//! floors composing across repeated selections, and the accuracy gap
//! against discretized storage. The database lives in a scratch directory
//! that is removed when the example ends.
//!
//! Run with: `cargo run -p orion-examples --bin sensor_network`

use orion_examples::banner;
use orion_pdf::prelude::*;
use orion_sql::{render_output, DurableSession};
use orion_workload::SensorWorkload;

fn main() {
    banner("Sensor network: 500 uncertain readings");
    let mut db = DurableSession::temporary("sensor_network").expect("open a scratch database");
    db.execute("CREATE TABLE readings (rid INT, temp REAL UNCERTAIN)").unwrap();

    // Bulk-insert workload readings through SQL.
    let mut w = SensorWorkload::new(2024);
    let readings = w.readings(500);
    for chunk in readings.chunks(50) {
        let values: Vec<String> = chunk
            .iter()
            .map(|r| format!("({}, GAUSSIAN({:.4}, {:.6}))", r.rid, r.mean, r.sd * r.sd))
            .collect();
        db.execute(&format!("INSERT INTO readings VALUES {}", values.join(", "))).unwrap();
    }

    banner("Alarm query: which sensors read above 90 with > 50% confidence?");
    let out = db
        .execute(
            "SELECT rid, EXPECTED(temp), PROB(temp > 90) FROM readings WHERE PROB(temp > 90) > 0.5",
        )
        .unwrap();
    println!("{}\n", render_output(&out).unwrap());

    banner("Compound condition: hot but not extreme");
    let out = db
        .execute(
            "SELECT rid, PROB(temp BETWEEN 80 AND 95) FROM readings \
             WHERE PROB(temp BETWEEN 80 AND 95) >= 0.9",
        )
        .unwrap();
    println!("{}\n", render_output(&out).unwrap());

    banner("Floors compose: temp > 40 then temp < 60 leaves a window");
    db.execute("CREATE TABLE window (rid INT, temp REAL UNCERTAIN)").unwrap();
    db.execute("INSERT INTO window VALUES (1, GAUSSIAN(50, 100))").unwrap();
    let exact = Pdf1::gaussian(50.0, 100.0).unwrap();
    let floored = exact
        .floor_region(&RegionSet::from_interval(Interval::at_most(40.0)))
        .floor_region(&RegionSet::from_interval(Interval::at_least(60.0)));
    println!("stored representation: {floored}");
    println!("window mass P(40 < temp < 60): {:.4}\n", floored.mass());

    banner("Why symbolic storage matters: accuracy at equal size");
    let query = Interval::new(88.0, 92.0);
    let truth = exact.range_prob(&query);
    let hist5 = Pdf1::Histogram(exact.to_histogram(5).unwrap());
    let disc5 = Pdf1::Discrete(exact.to_discrete(5).unwrap());
    println!("P(temp in [88, 92]) exact symbolic : {truth:.6}");
    println!(
        "  5-bucket histogram : {:.6} (err {:+.6})",
        hist5.range_prob(&query),
        hist5.range_prob(&query) - truth
    );
    println!(
        "  5-point discrete   : {:.6} (err {:+.6})",
        disc5.range_prob(&query),
        disc5.range_prob(&query) - truth
    );
}

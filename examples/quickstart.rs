//! Quickstart: the paper's Table I sensor database, expressed in Orion SQL.
//!
//! Creates an uncertain relation, inserts symbolic Gaussian readings,
//! and runs certain selections, uncertain (flooring) selections, and
//! probabilistic threshold range queries. The database lives in a scratch
//! directory that is removed when the example ends.
//!
//! Run with: `cargo run -p orion-examples --bin quickstart`

use orion_examples::{banner, run_and_show};
use orion_sql::DurableSession;

fn main() {
    banner("Orion-RS quickstart: probabilistic attributes in SQL");
    let mut db = DurableSession::temporary("quickstart").expect("open a scratch database");

    // The paper's Table I: sensor locations with Gaussian error.
    run_and_show(&mut db, "CREATE TABLE sensors (id INT, location REAL UNCERTAIN)");
    run_and_show(
        &mut db,
        "INSERT INTO sensors VALUES (1, GAUSSIAN(20, 5)), (2, GAUSSIAN(25, 4)), \
         (3, GAUSSIAN(13, 1))",
    );
    run_and_show(&mut db, "SELECT * FROM sensors");

    banner("Certain selection (Case 1): pdfs are copied untouched");
    run_and_show(&mut db, "SELECT * FROM sensors WHERE id = 1");

    banner("Uncertain selection: a symbolic floor, not an approximation");
    // The result pdf is stored as [Gaus(20,5), Floor{[20,inf]}] — exactly
    // the paper's Section III-A representation.
    run_and_show(&mut db, "SELECT * FROM sensors WHERE location < 20");

    banner("Expected values and range probabilities per tuple");
    run_and_show(
        &mut db,
        "SELECT id, EXPECTED(location), PROB(location BETWEEN 18 AND 22) FROM sensors",
    );

    banner("Distribution statistics: variance, median, tail quantile");
    run_and_show(
        &mut db,
        "SELECT id, VARIANCE(location), MEDIAN(location), QUANTILE(location, 0.975) FROM sensors",
    );

    banner("Probabilistic threshold range query (Section III-E)");
    run_and_show(&mut db, "SELECT * FROM sensors WHERE PROB(location BETWEEN 18 AND 22) > 0.5");

    banner("Aggregates with continuous approximation (Section I)");
    run_and_show(&mut db, "SELECT ECOUNT(*), ESUM(location), EAVG(location) FROM sensors");
}

//! Data cleaning: dirty records with discrete repair alternatives — the
//! paper's "multiple alternatives for an incorrect value" motivation.
//!
//! Shows discrete uncertainty living natively next to continuous pdfs,
//! maybe-tuples via partial pdfs, and deletion with phantom-node history
//! preservation. The database lives in a scratch directory that is removed
//! when the example ends.
//!
//! Run with: `cargo run -p orion-examples --bin data_cleaning`

use orion_examples::{banner, run_and_show};
use orion_sql::DurableSession;

fn main() {
    banner("Data cleaning: candidate repairs as discrete pdfs");
    let mut db = DurableSession::temporary("data_cleaning").expect("open a scratch database");
    run_and_show(&mut db, "CREATE TABLE invoices (inv INT, amount REAL UNCERTAIN, region TEXT)");
    // Three dirty rows: OCR produced candidate amounts with confidences.
    run_and_show(
        &mut db,
        "INSERT INTO invoices VALUES \
         (1, DISCRETE(100:0.7, 1000:0.3), 'emea'), \
         (2, DISCRETE(250:0.5, 260:0.5), 'apac'), \
         (3, DISCRETE(75:0.9, 750:0.1), 'emea')",
    );
    run_and_show(&mut db, "SELECT * FROM invoices");

    banner("A maybe-record: the extractor is only 60% sure the row exists");
    run_and_show(&mut db, "INSERT INTO invoices VALUES (4, DISCRETE(42:0.6), 'apac')");
    run_and_show(&mut db, "SELECT * FROM invoices WHERE inv = 4");

    banner("Queries over repairs: which invoices might exceed 500?");
    run_and_show(
        &mut db,
        "SELECT inv, PROB(amount > 500) FROM invoices WHERE PROB(amount > 500) > 0",
    );

    banner("Selection floors impossible repairs away");
    // amount < 500 zeroes the 1000/750 candidates; tuple 1 survives with
    // probability 0.7, tuple 3 with 0.9.
    run_and_show(&mut db, "SELECT * FROM invoices WHERE amount < 500");

    banner("Expected totals under uncertainty");
    run_and_show(&mut db, "SELECT ECOUNT(*), ESUM(amount), EAVG(amount) FROM invoices");

    banner("Certain-attribute filters still work classically");
    run_and_show(&mut db, "SELECT inv, amount FROM invoices WHERE region = 'emea'");

    banner("Deletion with history bookkeeping");
    run_and_show(&mut db, "DELETE FROM invoices WHERE inv = 2");
    run_and_show(&mut db, "SELECT inv FROM invoices");
}

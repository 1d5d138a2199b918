//! Shared helpers for the Orion-RS example binaries.

use orion_sql::{render_output, DurableSession, Output};

/// Executes a statement, printing the SQL and its rendered result.
pub fn run_and_show(db: &mut DurableSession, sql: &str) -> Output {
    println!("orion> {sql}");
    let out = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    println!("{}\n", render_output(&out).expect("renderable output"));
    out
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(64));
    println!("{title}");
    println!("{}", "=".repeat(64));
}

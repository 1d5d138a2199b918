//! An interactive Orion SQL shell.
//!
//! ```text
//! cargo run -p orion-examples --bin orion_shell [-- DATABASE_DIR]
//! ```
//!
//! Reads statements from stdin (terminated by `;`), executes them through a
//! durable session over `DATABASE_DIR` (created if absent), and renders
//! results. Every statement is durable as soon as it returns; reopening the
//! directory recovers it. Without a directory the database lives in a
//! scratch directory that is removed at exit. Meta-commands:
//!
//! * `\tables` — list tables with tuple counts (a query on `orion.tables`);
//! * `\quit` — exit (also Ctrl-D).

use orion_sql::{render_output, DurableSession};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).map(PathBuf::from);
    let opened = match &arg {
        Some(dir) => DurableSession::open(dir),
        None => DurableSession::temporary("orion-shell"),
    };
    let mut db = match opened {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open the database: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &arg {
        eprintln!("opened {}", dir.display());
    }

    eprintln!("Orion-RS SQL shell — end statements with ';', \\quit to exit");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    print!("orion> ");
    std::io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('\\') {
            match trimmed {
                "\\quit" | "\\q" => break,
                "\\tables" => run(&mut db, "SELECT tbl, rows FROM orion.tables"),
                other => eprintln!("unknown meta-command '{other}' (try \\tables, \\quit)"),
            }
            print!("orion> ");
            std::io::stdout().flush().ok();
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            let stmt = std::mem::take(&mut buffer);
            run(&mut db, &stmt);
        }
        let prompt = if buffer.is_empty() { "orion> " } else { "   ... " };
        print!("{prompt}");
        std::io::stdout().flush().ok();
    }
    ExitCode::SUCCESS
}

/// Executes one statement, printing its rendered result or the error.
fn run(db: &mut DurableSession, sql: &str) {
    match db.execute(sql) {
        Ok(out) => match render_output(&out) {
            Ok(text) => println!("{text}"),
            Err(e) => eprintln!("render error: {e}"),
        },
        Err(e) => eprintln!("error: {e}"),
    }
}

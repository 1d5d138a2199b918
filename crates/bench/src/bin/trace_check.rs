//! CI schema check for Chrome trace-event files and slow-query dumps.
//!
//! Usage: `trace_check FILE [FILE ...]`
//!
//! Parses each file with the dependency-free JSON parser and runs the
//! structural validator ([`orion_obs::validate_chrome_trace`]): required
//! keys on every `"X"` event, monotone timestamps, well-nested spans per
//! lane, and at least one complete event. Files carrying a top-level
//! `"kind": "slow_queries"` are workload-repository slow-query dumps
//! (`slow-*.json`) and go through [`orion_obs::validate_slow_dump`]. Exits
//! non-zero on the first unparseable or malformed file, so
//! `scripts/check.sh` fails loudly when instrumentation regresses.

use orion_obs::{json, validate_chrome_trace, validate_slow_dump};

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: trace_check FILE [FILE ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for file in &files {
        match check(file) {
            Ok(n) => eprintln!("OK: {file} ({n} events)"),
            Err(e) => {
                eprintln!("FAIL: {file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Validates one file; returns the number of `traceEvents` entries (or
/// captured queries for a slow-query dump).
fn check(path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    if doc.get("kind").and_then(json::Value::as_str) == Some("slow_queries") {
        return validate_slow_dump(&doc);
    }
    validate_chrome_trace(&doc)?;
    let n = doc.get("traceEvents").and_then(json::Value::as_array).map(|a| a.len()).unwrap_or(0);
    Ok(n)
}

//! `e2e`: the statement-level benchmark of Orion-RS.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one pass
//! e2e run [--smoke] [--seed n] [--seconds s] [--repeat k] [--out BENCH.json]
//! e2e compare BASE.json NEW.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it measures one workload
//! in this process and prints one JSON object as the last line. `run`
//! re-executes this binary once per workload and pass, so every workload has
//! a process (allocator, RSS, WAL) of its own, and gathers the results into
//! one versioned document.

mod gen;
mod harness;
mod layers;
mod report;
mod seam;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--data-dir DIR]
  e2e run [--smoke] [--seed <n>] [--seconds <s>] [--repeat <k>] [--out FILE] [--data-dir DIR]
  e2e compare BASE.json NEW.json
workloads: point_read threshold_scan indexed_threshold history_join autocommit_insert txn_mix";

/// `--key value` pairs and bare flags after the optional subcommand.
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut args = Args { positional: Vec::new(), options: Vec::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(key) if key == "smoke" => args.options.push((key.to_string(), None)),
                Some(key) => args.options.push((key.to_string(), raw.next())),
                None => args.positional.push(a),
            }
        }
        args
    }

    pub fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    pub fn value(&self, key: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    pub fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }
}

/// Where databases, traces and `BENCH.json` go: under the build directory,
/// which is inside the checkout and already ignored.
pub fn output_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e")
}

fn one_pass(args: &Args) -> Result<i32, String> {
    let name = args.value("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.number("seed", 42)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    let traced = match args.value("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let root = args.value("data-dir").map_or_else(|| output_root().join("data"), PathBuf::from);
    let pass = report::Pass {
        workload,
        seed,
        seconds,
        traced,
        scale: if args.flag("smoke") { Scale::SMOKE } else { Scale::FULL },
        data_dir: root.join(format!("{}-{}", workload.name(), std::process::id())),
        trace_dir: output_root(),
    };
    report::one_pass(&pass)
}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let result = match args.positional.first().map(String::as_str) {
        None if args.flag("workload") => one_pass(&args),
        Some("run") => report::run_all(&args),
        Some("compare") => report::compare_files(&args.positional[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("e2e: {message}");
            std::process::exit(2);
        }
    }
}

//! Morsel-driven parallel scaling sweep: selection runtime and speedup at
//! increasing worker counts, with bit-identical output enforced.
//!
//! Usage: `fig_parallel [--quick] [--json PATH] [--min-speedup X]`
//! Default is the acceptance workload (500K Gaussian tuples); `--quick`
//! runs 100K. `--json PATH` also writes a `.stats.json` sibling with the
//! per-worker morsel/busy-time lanes. With `--min-speedup X` the process exits non-zero unless the 4-thread
//! speedup reaches `X` — intended for CI gates on machines with at least
//! 4 cores.

use orion_bench::parallel::{rows_to_json, run, speedup_at, stats_json, ParallelConfig};
use orion_bench::report;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let min_speedup = args
        .iter()
        .position(|a| a == "--min-speedup")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse::<f64>().expect("--min-speedup takes a number"));

    let cfg = if quick { ParallelConfig::quick() } else { ParallelConfig::default() };
    eprintln!(
        "fig_parallel: {} tuples, threads {:?}, morsel {} (host cores: {})",
        cfg.n_tuples,
        cfg.thread_counts,
        cfg.morsel_size,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let rows = run(&cfg);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                report::fmt_secs(r.query_secs),
                format!("{:.2}x", r.speedup),
                r.n_tuples.to_string(),
                r.out_tuples.to_string(),
            ]
        })
        .collect();
    print!("{}", report::text_table(&["threads", "query", "speedup", "tuples", "matches"], &table));
    if let Some(p) = json_path {
        report::write_json(&p, &rows_to_json(&rows)).expect("write json");
        eprintln!("wrote {}", p.display());
        let sp = report::stats_path(&p);
        report::write_json(&sp, &stats_json(&rows)).expect("write stats json");
        eprintln!("wrote {}", sp.display());
    }
    if let Some(min) = min_speedup {
        let got = speedup_at(&rows, 4).unwrap_or(0.0);
        if got < min {
            eprintln!("FAIL: 4-thread speedup {got:.2}x < required {min:.2}x");
            std::process::exit(1);
        }
        eprintln!("OK: 4-thread speedup {got:.2}x >= {min:.2}x");
    }
}

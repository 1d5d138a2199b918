//! Regenerates Figure 5: range-query runtime and physical reads over
//! on-disk relations of uncertain tuples, per representation.
//!
//! Usage: `fig5_performance [--full] [--mode row|batch] [--compare]
//! [--min-speedup X] [--json PATH]`
//!
//! Default is a 10x scaled-down sweep (50K-300K tuples); `--full` runs the
//! paper's 0.5M-3M. `--mode batch` runs the query phase through the
//! columnar batch kernels instead of the scalar row path. `--compare`
//! builds each relation once and times the query phase in both modes,
//! reporting the row/batch speedup (with `--min-speedup X` the process
//! exits non-zero if the widest representation's aggregate speedup —
//! fig5's `Discrete(25)`, where the columnar layout has the most bytes to
//! win — falls below `X`).

use orion_bench::fig5::{
    aggregate_speedup, cleanup, compare, compare_to_json, estimate_report, rows_to_json, run_mode,
    stats_json, wide_repr_speedup, workload_report, Fig5Config,
};
use orion_bench::report;
use orion_core::batch::ExecMode;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let compare_modes = args.iter().any(|a| a == "--compare");
    let mode = match args.iter().position(|a| a == "--mode").and_then(|i| args.get(i + 1)) {
        Some(m) if m.eq_ignore_ascii_case("batch") => ExecMode::Batch,
        Some(m) if m.eq_ignore_ascii_case("row") => ExecMode::Row,
        Some(m) => {
            eprintln!("unknown --mode '{m}' (expected row or batch)");
            std::process::exit(2);
        }
        None => ExecMode::Row,
    };
    let min_speedup: Option<f64> = args
        .iter()
        .position(|a| a == "--min-speedup")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--min-speedup expects a number"));
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);

    let cfg = if full { Fig5Config::default() } else { Fig5Config::quick() };
    eprintln!(
        "Figure 5: tuples {:?}, pool {} pages, reprs {:?}, mode {}",
        cfg.tuple_counts,
        cfg.pool_pages,
        cfg.reprs.iter().map(|r| r.label()).collect::<Vec<_>>(),
        if compare_modes { "row-vs-batch".to_string() } else { mode.to_string() }
    );

    if compare_modes {
        let rows = compare(&cfg).expect("compare sweep");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.n_tuples.to_string(),
                    r.repr.clone(),
                    report::fmt_secs(r.row_query_secs),
                    report::fmt_secs(r.batch_query_secs),
                    format!("{:.2}x", r.speedup),
                    r.matches.to_string(),
                ]
            })
            .collect();
        print!(
            "{}",
            report::text_table(
                &["tuples", "repr", "row_query", "batch_query", "speedup", "matches"],
                &table
            )
        );
        let agg = aggregate_speedup(&rows);
        let wide = wide_repr_speedup(&rows);
        eprintln!("aggregate speedup (total row query time / total batch): {agg:.2}x");
        eprintln!("wide-representation aggregate speedup (gate metric): {wide:.2}x");
        if let Some(p) = json_path {
            report::write_json(&p, &compare_to_json(&rows)).expect("write json");
            eprintln!("wrote {}", p.display());
        }
        cleanup(&cfg.dir);
        if let Some(min) = min_speedup {
            if wide < min {
                eprintln!("wide-representation speedup {wide:.2}x below required {min:.2}x");
                std::process::exit(1);
            }
        }
        return;
    }

    let rows = run_mode(&cfg, mode).expect("sweep");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n_tuples.to_string(),
                r.repr.clone(),
                r.mode.clone(),
                report::fmt_secs(r.build_secs),
                report::fmt_secs(r.query_secs),
                r.physical_reads.to_string(),
                r.pages.to_string(),
                r.matches.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        report::text_table(
            &["tuples", "repr", "mode", "build", "query", "phys_reads", "pages", "matches"],
            &table
        )
    );
    if let Some(p) = json_path {
        report::write_json(&p, &rows_to_json(&rows)).expect("write json");
        eprintln!("wrote {}", p.display());
        // Estimate-vs-actual for the workload's threshold query, before
        // and after ANALYZE, rides along in the stats sidecar.
        let est_n = 2_000;
        let estimates =
            vec![estimate_report(est_n, cfg.seed, false), estimate_report(est_n, cfg.seed, true)];
        for r in &estimates {
            if let Some(t) = r.threshold_op() {
                eprintln!(
                    "threshold estimate (analyzed={}): est {} actual {} rel_err {:.3}",
                    r.analyzed, t.est_rows, t.actual_rows, t.rel_err
                );
            }
        }
        // The per-statement workload repository over the same query shape
        // becomes the sidecar's `statements` section.
        let statements = workload_report(est_n, cfg.seed);
        let sp = report::stats_path(&p);
        report::write_json(&sp, &stats_json(&rows, &estimates, statements))
            .expect("write stats json");
        eprintln!("wrote {}", sp.display());
    }
    cleanup(&cfg.dir);
}

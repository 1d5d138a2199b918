//! Regenerates the durability figure: full vs incremental checkpoint cost.
//!
//! Usage: `fig_durability [--json PATH] [--trace PATH]`
//!
//! `--trace PATH` records the run with the structured tracer (WAL append /
//! fsync spans, checkpoint spans) and writes a Chrome trace-event file.

use orion_bench::durability::{run_checkpoints, to_json, DurabilityConfig};
use orion_bench::report;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let trace_path = report::trace_arg(&args);

    let cfg = DurabilityConfig::default();
    eprintln!(
        "Durability figure: checkpoint sizes {:?}, tail {}",
        cfg.checkpoint_sizes, cfg.checkpoint_tail
    );
    let dir = std::env::temp_dir().join("orion_fig_durability_bin");
    let ckpt = run_checkpoints(&cfg, &dir);
    std::fs::remove_dir_all(&dir).ok();
    let table: Vec<Vec<String>> = ckpt
        .iter()
        .map(|r| {
            vec![
                r.kind.clone(),
                r.tuples.to_string(),
                r.pages_copied.to_string(),
                r.pages_skipped.to_string(),
                report::fmt_secs(r.secs),
            ]
        })
        .collect();
    print!(
        "{}",
        report::text_table(
            &["checkpoint", "tuples", "pages_copied", "pages_skipped", "time"],
            &table
        )
    );

    if let Some(p) = json_path {
        report::write_json(&p, &to_json(&ckpt)).expect("write json");
        eprintln!("wrote {}", p.display());
    }
    if let Some(p) = trace_path {
        report::write_trace(&p);
    }
}

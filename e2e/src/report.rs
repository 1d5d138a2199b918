//! Output: the one-line result the benchmark contract asks for, the
//! line-per-metric text form, the versioned `BENCH.json` document, and the
//! comparison of two such documents.

use crate::harness::{self, Observed, RunConfig};
use crate::layers;
use crate::seam::{self, json};
use crate::stats::{beyond, median, quartiles, spread};
use crate::workloads::{Scale, Workload};
use crate::Args;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Version of the `BENCH.json` layout.
pub const SCHEMA: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: its unit, which way is better, and the share of the
/// base value by which it may worsen before that counts as a regression.
/// `BENCHMARK.json` carries the same table (a test keeps them equal).
///
/// The time bounds are wider than a quiet machine would need: on the shared
/// 2-core host this was defined on, ten back-to-back runs spread 3-14 % of
/// their median (interquartile) and whole sessions drift further, and the
/// multi-threaded workloads' peak RSS is bimodal (allocator arenas) by 13-20 %.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// The metric's value for one pass. Latency and throughput are taken per
    /// round and the median round is reported, so interference that hits a
    /// few rounds does not move the result.
    pub value: fn(&Observed) -> f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: |o| median(&o.setup_s),
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        value: |o| median(&o.round_ops_per_s),
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        value: |o| median(&o.round_p50_ms),
    },
    EndToEnd {
        name: "p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        value: |o| median(&o.round_p95_ms),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        value: |_| harness::peak_rss_mib(),
    },
    EndToEnd {
        name: "disk_amp",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.05,
        value: |o| median(&o.disk_amp),
    },
    EndToEnd {
        name: "recovery_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: |o| median(&o.recovery_s),
    },
    EndToEnd {
        name: "checkpoint_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        value: |o| median(&o.checkpoint_s),
    },
];

/// One workload, one pass, in this process.
pub struct Pass {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    pub data_dir: PathBuf,
    pub trace_dir: PathBuf,
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> json::Value {
    let mut obj = json::Value::object();
    for (name, value, unit) in metrics {
        obj.set(name, json::Value::object().with("value", *value).with("unit", *unit));
    }
    obj
}

/// Runs the pass, prints `workload metric value unit` lines, a `#detail`
/// line for `run` to gather, and last the contract's result object.
pub fn one_pass(pass: &Pass) -> Result<i32, String> {
    seam::scrub_environment();
    let cfg = RunConfig {
        workload: pass.workload,
        seed: pass.seed,
        seconds: pass.seconds,
        scale: pass.scale,
        data_dir: pass.data_dir.clone(),
        measure_setup: !pass.traced && pass.scale == Scale::FULL,
    };
    harness::fresh_dir(&cfg.data_dir).map_err(|e| format!("{}: {e}", cfg.data_dir.display()))?;
    let name = pass.workload.name();
    let (attempted, failed, failures, metrics, detail) = if pass.traced {
        let trace_file = pass.trace_dir.join(format!("trace-{name}.json"));
        let l = layers::run(&cfg, &trace_file).map_err(|e| format!("{name}: {e}"))?;
        (l.attempted, l.failed, l.failures, l.metrics, l.counts)
    } else {
        let obs = harness::run(&cfg).map_err(|e| format!("{name}: {e}"))?;
        let n = obs.latency_ms.len();
        let detail = json::Value::object()
            .with("rounds", obs.rounds)
            .with("latency_samples", n as u64)
            .with("samples_beyond_p95", beyond(n, 0.95) as u64)
            .with("setups", obs.setup_s.len() as u64)
            .with("txn_retries", obs.txn_retries)
            .with("txn_gave_up", obs.txn_gave_up)
            .with("failed_share", obs.failed as f64 / obs.attempted.max(1) as f64);
        let metrics = END_TO_END.iter().map(|m| (m.name, (m.value)(&obs), m.unit)).collect();
        (obs.attempted, obs.failed, obs.failures, metrics, detail)
    };
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    for why in &failures {
        eprintln!("e2e: {name}: FAILED {why}");
    }
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    println!("#detail {}", detail.to_string_compact());
    let result = json::Value::object()
        .with("correct", failed == 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics_json(&metrics));
    println!("{}", result.to_string_compact());
    Ok(0)
}

// ---------------------------------------------------------------------------
// `e2e run`: every workload, untraced then traced, each in a child process
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix).
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then(|| (at.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

fn host_block(data_root: &Path) -> json::Value {
    let unknown = || "unknown".to_string();
    json::Value::object()
        .with("nproc", std::thread::available_parallelism().map_or(0, |n| n.get()) as u64)
        .with(
            "cgroup_cpu_max",
            std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        )
        .with("rustc", command_line("rustc", &["--version"]).unwrap_or_else(unknown))
        .with("git_commit", command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown))
        .with("data_dir", data_root.display().to_string())
        .with("data_dir_fs", fs_type(data_root))
}

/// What a child pass printed: the `#detail` object and the result object.
struct ChildOutput {
    detail: json::Value,
    result: json::Value,
}

fn run_child(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    data_root: &Path,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--data-dir")
        .arg(data_root)
        .stderr(std::process::Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {}: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} (trace {}) exited with {}", w.name(), traced as u8, out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut detail = json::Value::object();
    let mut last = "";
    for line in text.lines() {
        match line.strip_prefix("#detail ") {
            Some(d) => detail = json::parse(d).map_err(|e| format!("{}: detail: {e}", w.name()))?,
            None => {
                if !line.starts_with('{') {
                    println!("{line}");
                }
                last = line;
            }
        }
    }
    let result = json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    Ok(ChildOutput { detail, result })
}

fn metric_values(result: &json::Value) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .and_then(|m| m.as_object())
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(name, m)| {
                    Some((
                        name.clone(),
                        m.get("value")?.as_f64()?,
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Median and quartiles of one metric over the repeats.
fn summarize(values: &[f64], unit: &str) -> json::Value {
    let [q1, q2, q3] = quartiles(values);
    let mut runs = json::Value::array();
    for v in values {
        runs.push(*v);
    }
    json::Value::object()
        .with("value", q2)
        .with("unit", unit)
        .with("q1", q1)
        .with("q3", q3)
        .with("spread", spread(values))
        .with("runs", runs)
}

pub fn run_all(args: &Args) -> Result<i32, String> {
    let smoke = args.flag("smoke");
    let seed: u64 = args.number("seed", 42)?;
    let seconds: f64 = args.number("seconds", if smoke { 0.3 } else { 10.0 })?;
    let repeat: usize = args.number("repeat", 1)?;
    let root = crate::output_root();
    let data_root = args.value("data-dir").map_or_else(|| root.join("data"), PathBuf::from);
    let out_file = args.value("out").map_or_else(|| root.join("BENCH.json"), PathBuf::from);
    std::fs::create_dir_all(&data_root).map_err(|e| format!("{}: {e}", data_root.display()))?;

    let mut workloads = json::Value::object();
    let mut any_failed = false;
    let mut incomplete: Vec<String> = Vec::new();
    for w in Workload::ALL {
        let mut e2e: Vec<(String, Vec<f64>, String)> = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut samples = json::Value::object();
        for r in 0..repeat.max(1) {
            let child = run_child(w, seed + r as u64, seconds, false, smoke, &data_root)?;
            attempted += child.result.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
            failed += child.result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
            for (name, value, unit) in metric_values(&child.result) {
                match e2e.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, values, _)) => values.push(value),
                    None => e2e.push((name, vec![value], unit)),
                }
            }
            samples = child.detail;
        }
        let traced = run_child(w, seed, seconds, true, smoke, &data_root)?;
        attempted += traced.result.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += traced.result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        any_failed |= failed > 0;

        let mut e2e_json = json::Value::object();
        for (name, values, unit) in &e2e {
            e2e_json.set(name, summarize(values, unit));
        }
        let failed_share = failed as f64 / attempted.max(1) as f64;
        println!("{} failed_share {failed_share} ratio", w.name());
        let mut layers_json = json::Value::object();
        for (name, value, unit) in metric_values(&traced.result) {
            if name == "bench.trace_coverage" && value < 0.8 {
                incomplete.push(format!("{}: bench.trace_coverage {value:.3} < 0.8", w.name()));
            }
            layers_json
                .set(&name, json::Value::object().with("value", value).with("unit", unit.as_str()));
        }
        workloads.set(
            w.name(),
            json::Value::object()
                .with("why", w.why())
                .with("e2e", e2e_json)
                .with("layers", layers_json)
                .with(
                    "counts",
                    json::Value::object()
                        .with("clients", w.clients() as u64)
                        .with(
                            "rows_per_table",
                            if smoke { Scale::SMOKE } else { Scale::FULL }.rows(w) as u64,
                        )
                        .with("tables", w.tables().len() as u64)
                        .with("ops_per_round", (w.round_ops() * w.clients()) as u64)
                        .with("attempted", attempted)
                        .with("failed", failed)
                        .with("failed_share", failed_share)
                        .with("traced", traced.detail),
                )
                .with("samples", samples),
        );
    }
    for why in &incomplete {
        eprintln!("e2e: decomposition incomplete: {why}");
    }
    let doc = json::Value::object()
        .with("schema", SCHEMA)
        .with("claim", json::Value::Null)
        .with("host", host_block(&data_root))
        .with(
            "config",
            json::Value::object()
                .with("seed", seed)
                .with("seconds_per_pass", seconds)
                .with("repeat", repeat as u64)
                .with("scale", if smoke { "smoke (1/20)" } else { "full" })
                .with("engine", seam::effective_config()),
        )
        .with("workloads", workloads);
    if let Some(parent) = out_file.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(&out_file, doc.to_string_pretty())
        .map_err(|e| format!("{}: {e}", out_file.display()))?;
    eprintln!("e2e: wrote {}", out_file.display());
    Ok(i32::from(any_failed || (smoke && !incomplete.is_empty())))
}

// ---------------------------------------------------------------------------
// `e2e compare`
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The spread between repeats is wider than the bound on either side.
    Unresolved,
}

/// Judges `new` against `base` for one metric. `spreads` are the
/// interquartile shares of the two sides' repeats (0 for a single run).
pub fn verdict(m: &EndToEnd, base: f64, new: f64, spreads: (f64, f64)) -> Verdict {
    if spreads.0 > m.bound || spreads.1 > m.bound {
        return Verdict::Unresolved;
    }
    let change = if base == 0.0 { 0.0 } else { (new - base) / base.abs() };
    let worsening = match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > m.bound {
        Verdict::Worse
    } else if worsening < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(|s| s.as_u64()) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, this binary reads schema {SCHEMA}")),
    }
}

fn metric_of(doc: &json::Value, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = doc.get("workloads")?.get(workload)?.get("e2e")?.get(metric)?;
    Some((m.get("value")?.as_f64()?, m.get("spread").and_then(|s| s.as_f64()).unwrap_or(0.0)))
}

fn failed_share_of(doc: &json::Value, workload: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("counts"))
        .and_then(|c| c.get("failed_share"))
        .and_then(|f| f.as_f64())
        .unwrap_or(0.0)
}

pub fn compare_files(paths: &[String]) -> Result<i32, String> {
    let [base_path, new_path] = paths else {
        return Err("compare needs two files: BASE.json NEW.json".to_string());
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut bad = 0;
    println!(
        "{:<18} {:<13} {:>14} {:>14} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    for w in Workload::ALL {
        for m in &END_TO_END {
            let (Some((b, bs)), Some((n, ns))) =
                (metric_of(&base, w.name(), m.name), metric_of(&new, w.name(), m.name))
            else {
                continue;
            };
            let v = verdict(m, b, n, (bs, ns));
            bad += i32::from(v == Verdict::Worse);
            let ratio = if b == 0.0 { 1.0 } else { n / b };
            println!(
                "{:<18} {:<13} {b:>14.4} {n:>14.4} {ratio:>7.3}  {}",
                w.name(),
                m.name,
                format!("{v:?}").to_lowercase()
            );
        }
        let (bf, nf) = (failed_share_of(&base, w.name()), failed_share_of(&new, w.name()));
        if nf > bf {
            bad += 1;
            println!(
                "{:<18} {:<13} {bf:>14.4} {nf:>14.4} {:>7}  worse",
                w.name(),
                "failed_share",
                ""
            );
        }
    }
    Ok(i32::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd =
        EndToEnd { name: "p50_ms", unit: "ms", better: Better::Lower, bound: 0.10, value: |_| 0.0 };
    const HIGHER: EndToEnd = EndToEnd { name: "ops_per_s", better: Better::Higher, ..LOWER };

    #[test]
    fn verdict_respects_direction_and_bound() {
        assert_eq!(verdict(&LOWER, 10.0, 10.9, (0.0, 0.0)), Verdict::Same);
        assert_eq!(verdict(&LOWER, 10.0, 11.1, (0.0, 0.0)), Verdict::Worse);
        assert_eq!(verdict(&LOWER, 10.0, 8.9, (0.0, 0.0)), Verdict::Better);
        assert_eq!(verdict(&HIGHER, 100.0, 89.0, (0.0, 0.0)), Verdict::Worse);
        assert_eq!(verdict(&HIGHER, 100.0, 111.0, (0.0, 0.0)), Verdict::Better);
        assert_eq!(verdict(&HIGHER, 100.0, 95.0, (0.02, 0.03)), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(verdict(&LOWER, 10.0, 10.0, (0.12, 0.0)), Verdict::Unresolved);
        assert_eq!(verdict(&LOWER, 10.0, 20.0, (0.0, 0.11)), Verdict::Unresolved);
        assert_eq!(
            verdict(&LOWER, 10.0, 20.0, (0.10, 0.10)),
            Verdict::Worse,
            "at the bound still judged"
        );
    }

    #[test]
    fn benchmark_json_agrees_with_the_metric_table() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let listed = doc.get("end_to_end").and_then(|e| e.as_array()).expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (want, got) in END_TO_END.iter().zip(listed) {
            assert_eq!(got.get("name").and_then(|v| v.as_str()), Some(want.name));
            assert_eq!(got.get("unit").and_then(|v| v.as_str()), Some(want.unit));
            let better = if want.better == Better::Lower { "lower" } else { "higher" };
            assert_eq!(got.get("better").and_then(|v| v.as_str()), Some(better));
            assert_eq!(got.get("bound").and_then(|v| v.as_f64()), Some(want.bound));
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn summarize_reports_median_and_quartiles() {
        let s = summarize(&[3.0, 1.0, 2.0], "ms");
        assert_eq!(s.get("value").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(s.get("q1").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(s.get("q3").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(s.get("runs").and_then(|v| v.as_array()).map(<[_]>::len), Some(3));
        let one = summarize(&[5.0], "ms");
        assert_eq!(one.get("value").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(one.get("spread").and_then(|v| v.as_f64()), Some(0.0));
    }
}

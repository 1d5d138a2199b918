//! Shared reporting helpers: aligned text tables and JSON artifacts.

use orion_obs::json;
use std::path::Path;

/// Renders rows of cells into an aligned text table.
pub fn text_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let mut out = String::new();
    let mut push_row = |cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    push_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for row in rows {
        push_row(row);
    }
    out
}

/// Writes an experiment result as pretty JSON.
pub fn write_json(path: &Path, value: &json::Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, value.to_string_pretty())
}

/// The sibling path where a binary's operator-stats snapshot goes: the
/// results path with `.stats.json` in place of its extension.
pub fn stats_path(results: &Path) -> std::path::PathBuf {
    results.with_extension("stats.json")
}

/// Formats a duration in adaptive units.
pub fn fmt_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = text_table(
            &["n", "value"],
            &[vec!["1".into(), "10.5".into()], vec!["100".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("value"));
    }

    #[test]
    fn json_round_trip() {
        let dir = orion_obs::scratch_dir("bench-report-test");
        let path = dir.join("x.json");
        let mut arr = json::Value::array();
        for v in [1u64, 2, 3] {
            arr.push(v);
        }
        write_json(&path, &arr).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains('1') && text.contains('3'), "{text}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn stats_path_is_sibling() {
        let p = stats_path(Path::new("results/fig5.json"));
        assert_eq!(p, Path::new("results/fig5.stats.json"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_secs(0.0000005), "0.5us");
        assert_eq!(fmt_secs(0.005), "5.00ms");
        assert_eq!(fmt_secs(2.5), "2.500s");
    }
}

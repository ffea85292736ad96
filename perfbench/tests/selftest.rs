//! Runs every workload at a tiny scale, traced and untraced, and checks
//! the report against `BENCHMARK.json`: every declared metric is printed
//! with its declared unit, and every op passed its check.

use std::process::Command;

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--papers", "300"])
        // Scratch data and span dumps go under the working directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a report").to_string();
    (stdout, last)
}

#[test]
fn every_workload_reports_every_metric_and_no_failure() {
    for workload in ["browse", "sql_read", "sql_mixed"] {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (stdout, json) = run(workload, trace);
            assert!(json.starts_with(r#"{"correct": true, "#), "{json}");
            assert!(json.contains(r#""failed": 0, "#), "{json}");
            assert!(
                stdout.contains("\nmetric failed_frac 0 fraction"),
                "{workload}: {stdout}"
            );
            let metrics = declared(section);
            assert!(!metrics.is_empty());
            for (name, unit) in &metrics {
                let key = format!(r#""{name}": {{"value": "#);
                let at = json
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                let rest = &json[at..];
                let entry = &rest[..rest.find('}').expect("closing brace")];
                assert!(
                    entry.ends_with(&format!(r#""unit": "{unit}""#)),
                    "{workload}: {name} has {entry}"
                );
            }
            assert_eq!(
                json.matches(r#"{"value": "#).count(),
                metrics.len(),
                "{workload}: metrics beyond BENCHMARK.json"
            );
            if trace == 1 {
                assert!(stdout.contains("tracing overhead: "), "{stdout}");
                assert!(stdout.contains("span dump: "), "{stdout}");
            }
        }
    }
}

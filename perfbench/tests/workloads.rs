//! The benchmark's own test: every workload runs in miniature, prints every
//! named metric with its unit and a correct result line, and the metric and
//! workload names match `BENCHMARK.json`.

use std::process::Command;

use wsn_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"key": "value"` strings of every object in the array `section` of
/// `json` (enough JSON for the file's flat layout).
fn field_values(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &body[i + needle.len()..];
            rest[..rest.find('"').unwrap()].to_string()
        })
        .collect()
}

fn names_and_units(table: &[(&str, &str)]) -> (Vec<String>, Vec<String>) {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .unzip()
}

#[test]
fn benchmark_json_names_match_the_program() {
    let json = benchmark_json();
    assert_eq!(field_values(&json, "workloads", "name"), WORKLOADS);
    for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let (names, units) = names_and_units(table);
        assert_eq!(
            field_values(&json, section, "name"),
            names,
            "{section} names"
        );
        assert_eq!(
            field_values(&json, section, "unit"),
            units,
            "{section} units"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_in_miniature() {
    for workload in WORKLOADS {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_wsn-perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
                .args(["--trace", trace, "--scale", "mini"])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed:\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().unwrap();
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{last}"
            );
            for &(name, unit) in table {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("{name} ")))
                    .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
                assert!(line.ends_with(&format!(" {unit}")), "{line}");
                let value: f64 = line.split(' ').nth(1).unwrap().parse().unwrap();
                assert!(value.is_finite(), "{line}");
                if trace == "0" {
                    assert!(value > 0.0, "{workload}: {line}");
                }
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from the result line"
                );
            }
            assert!(stdout.starts_with("meta: "), "metadata line first");
        }
    }
}

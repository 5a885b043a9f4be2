//! The benchmark at tiny scale: every workload prints every metric of
//! `BENCHMARK.json` by name with its unit, untraced and traced.

use std::process::Command;

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// `"name": {"value": <number>, "unit": "<unit>"}` from the result line.
fn value_of(line: &str, name: &str, unit: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let (num, rest) = rest.split_once(", \"unit\": ")?;
    rest.starts_with(&format!("\"{unit}\"}}"))
        .then(|| num.parse().ok())
        .flatten()
}

#[test]
fn catalog_matches_benchmark_json() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}

#[test]
fn every_workload_prints_every_metric() {
    for w in WORKLOADS {
        for (trace, list) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", w, "--seed", "9", "--seconds", "0.3"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("run perfbench");
            assert!(out.status.success(), "{w} trace={trace}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": "), "{last}");
            assert!(last.contains("\"attempted\": ") && last.contains("\"failed\": "));
            for (name, unit) in list {
                let v = value_of(last, name, unit)
                    .unwrap_or_else(|| panic!("{w} trace={trace}: no {name} in {unit}"));
                assert!(v.is_finite(), "{w}: {name} = {v}");
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(name) && l.ends_with(unit)),
                    "{w}: {name} not printed with its unit"
                );
            }
            if trace == "0" {
                for (name, unit) in END_TO_END {
                    let v = value_of(last, name, unit).unwrap();
                    assert!(v > 0.0, "{w}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--workload", "host_sim", "--trace", "2"],
        vec!["--seed", "1"],
        vec!["--workload", "host_sim", "--bogus", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

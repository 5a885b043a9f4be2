//! End-to-end checks of the `--json` report plumbing: run the real figure
//! binaries (the same executables CI and operators run) and validate the
//! reports they write against the `eiffel-bench-report/v1` schema.

use std::path::PathBuf;
use std::process::Command;

use eiffel_bench::json::{all_strings, JsonValue};
use eiffel_bench::report::SCHEMA;

/// Runs a figure binary with `--quick --json <tmp>` and parses the report.
fn run_and_parse(exe: &str, extra: &[&str]) -> JsonValue {
    let mut path = PathBuf::from(
        std::env::var("CARGO_TARGET_TMPDIR")
            .unwrap_or_else(|_| std::env::temp_dir().to_string_lossy().into_owned()),
    );
    path.push(format!(
        "report_{}.json",
        PathBuf::from(exe)
            .file_stem()
            .expect("binary has a name")
            .to_string_lossy()
    ));
    let _ = std::fs::remove_file(&path);
    let mut cmd = Command::new(exe);
    cmd.args(extra).arg("--json").arg(&path);
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "{exe} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("report file written");
    JsonValue::parse(&text).expect("report is valid JSON")
}

/// Schema-level assertions shared by every report.
fn assert_schema(doc: &JsonValue, figure: &str) {
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
    assert_eq!(doc.get("figure").unwrap().as_str(), Some(figure));
    for key in [
        "artifact",
        "title",
        "paper_claim",
        "quick",
        "config",
        "environment",
        "sweeps",
        "tables",
        "notes",
        "wall_secs",
    ] {
        assert!(doc.get(key).is_some(), "missing key {key}");
    }
    let env = doc.get("environment").unwrap();
    for key in ["host", "cpus", "rustc", "profile", "date_utc", "cmdline"] {
        assert!(env.get(key).is_some(), "missing environment key {key}");
    }
}

/// The `name` field of every element of a report array.
fn names(items: &[JsonValue]) -> Vec<&str> {
    items
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect()
}

/// The five queue backends every Figure 16–18 panel compares.
const FIVE_WAY: [&str; 5] = ["Approx", "cFFS", "BH", "SP-PIFO", "RIFO"];

/// An oracle drain-quality panel: one rank-error and one inversions-per-pop
/// series per backend, all non-negative, and zero for the exact backends.
fn assert_drain_quality(sweep: &JsonValue) {
    let series = sweep.get("series").unwrap().as_array().unwrap();
    let expect: Vec<String> = ["rank err", "inv/pop"]
        .iter()
        .flat_map(|m| FIVE_WAY.iter().map(move |k| format!("{k} {m}")))
        .collect();
    assert_eq!(names(series), expect);
    for s in series {
        let sname = s.get("name").unwrap().as_str().unwrap();
        let exact = sname.starts_with("cFFS") || sname.starts_with("BH");
        for v in s.get("values").unwrap().as_array().unwrap() {
            let x = v.as_f64().expect("quality cells are numbers");
            assert!(x >= 0.0, "{sname}: {x}");
            if exact {
                assert_eq!(x, 0.0, "exact backend {sname} must score zero");
            }
        }
    }
}

#[test]
fn fig12_quick_json_report_has_expected_series() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig12_hclock_scaling"), &["--quick"]);
    assert_schema(&doc, "fig12_hclock_scaling");
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));

    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(sweeps.len(), 3, "two rate-limited panels + capacity panel");
    let names: Vec<&str> = sweeps
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(names[0].contains("10 Gbps line rate"), "{names:?}");
    assert!(names[1].contains("5 Gbps"), "{names:?}");
    assert!(names[2].contains("capacity"), "{names:?}");

    for sweep in sweeps {
        let series = sweep.get("series").unwrap().as_array().unwrap();
        let series_names: Vec<&str> = series
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(
            series_names,
            ["Eiffel-hClock", "hClock (min-heap)", "BESS tc"],
            "every Figure 12 panel compares the same three schedulers"
        );
        let n_params = sweep.get("param_values").unwrap().as_array().unwrap().len();
        assert!(
            n_params >= 3,
            "quick sweep still covers several flow counts"
        );
        for s in series {
            let values = s.get("values").unwrap().as_array().unwrap();
            assert_eq!(values.len(), n_params, "values align with param_values");
            for v in values {
                let rate = v.as_f64().expect("measured rates are numbers");
                assert!(rate > 0.0, "rates are positive, got {rate}");
            }
        }
    }
    // The reconciled paper claim (the 40x/10x drift fix) travels with the
    // data.
    let claim = doc.get("paper_claim").unwrap().as_str().unwrap();
    assert!(claim.contains("10x") && claim.contains("§5.1.2"), "{claim}");
}

#[test]
fn fig9_quick_json_report_has_cdf_and_threaded_panels() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig09_kernel_shaping"), &["--quick"]);
    assert_schema(&doc, "fig09_kernel_shaping");
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));

    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(sweeps.len(), 3, "CDF + two threaded flow panels (quick)");
    let names: Vec<&str> = sweeps
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(names[0].contains("virtual-clock CDF"), "{names:?}");
    for name in &names[1..] {
        assert!(name.contains("threaded wall clock"), "{names:?}");
    }
    // The threaded panels interleave achieved-Gbps and busy-cores series
    // for the three qdiscs, with positive achieved rates.
    for sweep in &sweeps[1..] {
        let series = sweep.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 6);
        for (i, s) in series.iter().enumerate() {
            let unit = s.get("unit").unwrap().as_str().unwrap();
            assert_eq!(unit, if i % 2 == 0 { "Gbps" } else { "cores" });
            for v in s.get("values").unwrap().as_array().unwrap() {
                let x = v.as_f64().expect("threaded cells are numbers");
                if i % 2 == 0 {
                    assert!(x > 0.0, "achieved rates positive, got {x}");
                } else {
                    assert!(x >= 0.0, "busy cores non-negative, got {x}");
                }
            }
        }
    }
    // The cores-to-shape table travels with the data.
    let tables = doc.get("tables").unwrap().as_array().unwrap();
    assert_eq!(tables.len(), 1);
    let name = tables[0].get("name").unwrap().as_str().unwrap();
    assert!(name.contains("cores needed to shape"), "{name}");
    let rows = tables[0].get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 6, "3 qdiscs x 2 shard counts");
    let strings = all_strings(&doc);
    for sys in ["FQ/pacing", "Carousel", "Eiffel"] {
        assert!(strings.contains(&sys), "missing qdisc {sys}");
    }
}

#[test]
fn fig10_quick_json_report_has_virtual_and_threaded_panels() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig10_cpu_breakdown"), &["--quick"]);
    assert_schema(&doc, "fig10_cpu_breakdown");
    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(sweeps.len(), 4, "2 systems x {{virtual, threaded}}");
    let names: Vec<&str> = sweeps
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names.iter().filter(|n| n.starts_with("virtual")).count(), 2);
    assert_eq!(
        names
            .iter()
            .filter(|n| n.starts_with("threaded wall clock"))
            .count(),
        2,
        "{names:?}"
    );
    for sys in ["carousel", "eiffel"] {
        assert_eq!(
            names.iter().filter(|n| n.contains(sys)).count(),
            2,
            "{names:?}"
        );
    }
    for sweep in sweeps {
        let series = sweep.get("series").unwrap().as_array().unwrap();
        let series_names: Vec<&str> = series
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(series_names, ["system", "softirq"]);
        let mut total = 0.0;
        for s in series {
            let mut prev = f64::NEG_INFINITY;
            for v in s.get("values").unwrap().as_array().unwrap() {
                let x = v.as_f64().expect("CDF cells are numbers");
                assert!(x >= 0.0 && x >= prev, "CDF non-decreasing, got {x}");
                prev = x;
                total += x;
            }
        }
        let name = sweep.get("name").unwrap().as_str().unwrap();
        assert!(total > 0.0, "{name}: all-zero breakdown");
    }
}

#[test]
fn table1_json_report_carries_the_matrix() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_table1_landscape"), &[]);
    assert_schema(&doc, "table1_landscape");
    let tables = doc.get("tables").unwrap().as_array().unwrap();
    assert_eq!(tables.len(), 1);
    let rows = tables[0].get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 6, "six systems in the landscape");
    let strings = all_strings(&doc);
    for sys in ["Eiffel", "hClock", "Carousel", "PIFO"] {
        assert!(strings.contains(&sys), "missing system {sys}");
    }
}

#[test]
fn fig15_quick_json_report_has_expected_series() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig15_pfabric_scaling"), &["--quick"]);
    assert_schema(&doc, "fig15_pfabric_scaling");
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(sweeps.len(), 6, "shard {{1,2,4}} x batch {{1,16}} panels");
    let names: Vec<&str> = sweeps
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    for shards in [1, 2, 4] {
        assert_eq!(
            names
                .iter()
                .filter(|n| n.starts_with(&format!("{shards} shard")))
                .count(),
            2,
            "{names:?}"
        );
    }
    for batch in [1, 16] {
        assert_eq!(
            names
                .iter()
                .filter(|n| n.ends_with(&format!("batch {batch}")))
                .count(),
            3,
            "{names:?}"
        );
    }
    for sweep in sweeps {
        let series = sweep.get("series").unwrap().as_array().unwrap();
        let series_names: Vec<&str> = series
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(series_names, ["pFabric-Eiffel", "pFabric-BinaryHeap"]);
        let n_params = sweep.get("param_values").unwrap().as_array().unwrap().len();
        assert!(n_params >= 3, "quick sweep covers several flow counts");
        for s in series {
            let values = s.get("values").unwrap().as_array().unwrap();
            assert_eq!(values.len(), n_params);
            for v in values {
                let rate = v.as_f64().expect("measured rates are numbers");
                assert!(rate > 0.0, "rates are positive, got {rate}");
            }
        }
    }
    let claim = doc.get("paper_claim").unwrap().as_str().unwrap();
    assert!(claim.contains("5x") && claim.contains("§5.1.3"), "{claim}");
}

#[test]
fn fig16_quick_json_report_has_expected_series() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig16_packets_per_bucket"), &["--quick"]);
    assert_schema(&doc, "fig16_packets_per_bucket");
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(
        sweeps.len(),
        6,
        "5k/10k plain + 5k/10k batched + 5k/10k quality panels"
    );
    let sweep_names = names(sweeps);
    for (tag, at) in [("dequeue_batch", 2..4), ("drain quality", 4..6)] {
        assert_eq!(
            sweep_names.iter().filter(|n| n.contains(tag)).count(),
            2,
            "{sweep_names:?}"
        );
        for name in &sweep_names[at] {
            assert!(name.contains(tag), "{name}");
        }
    }
    for sweep in &sweeps[..2] {
        let series = sweep.get("series").unwrap().as_array().unwrap();
        let mut expect = FIVE_WAY.to_vec();
        expect.push("Approx est. hit rate");
        assert_eq!(names(series), expect);
        for s in &series[..5] {
            for v in s.get("values").unwrap().as_array().unwrap() {
                let mpps = v.as_f64().expect("drain rates are numbers");
                assert!(mpps > 0.0, "drain rates are positive, got {mpps}");
            }
        }
    }
    // The drain-quality panels carry the oracle metrics.
    for sweep in &sweeps[4..] {
        assert_drain_quality(sweep);
    }
}

#[test]
fn fig17_quick_json_report_has_expected_series() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig17_occupancy"), &["--quick"]);
    assert_schema(&doc, "fig17_occupancy");
    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(sweeps.len(), 6, "2 bucket counts x 3 fill patterns");
    let sweep_names = names(sweeps);
    for p in ["sparse", "dense", "clustered"] {
        assert_eq!(
            sweep_names.iter().filter(|n| n.contains(p)).count(),
            2,
            "{p}: {sweep_names:?}"
        );
    }
    for sweep in sweeps {
        let series = sweep.get("series").unwrap().as_array().unwrap();
        let mut expect = FIVE_WAY.to_vec();
        expect.push("Approx est. hit rate");
        assert_eq!(names(series), expect);
        for v in series[5].get("values").unwrap().as_array().unwrap() {
            let hit = v.as_f64().expect("hit rates are numbers");
            assert!((0.0..=1.0).contains(&hit), "hit rate {hit}");
        }
    }
}

#[test]
fn fig18_quick_json_report_has_expected_series() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig18_approx_error"), &["--quick"]);
    assert_schema(&doc, "fig18_approx_error");
    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(sweeps.len(), 3, "estimator panel + 5k/10k quality panels");
    let est = sweeps[0].get("series").unwrap().as_array().unwrap();
    assert_eq!(names(est), ["5k buckets", "10k buckets"]);
    for s in est {
        for v in s.get("values").unwrap().as_array().unwrap() {
            let err = v.as_f64().expect("estimator errors are numbers");
            assert!(err >= 0.0, "estimator error {err}");
        }
    }
    for sweep in &sweeps[1..] {
        let name = sweep.get("name").unwrap().as_str().unwrap();
        assert!(name.contains("sparse drain quality"), "{name}");
        assert_drain_quality(sweep);
    }
    let claim = doc.get("paper_claim").unwrap().as_str().unwrap();
    assert!(
        claim.contains("granularity") && claim.contains("Figure 18"),
        "{claim}"
    );
}

#[test]
fn fig_tree_policy_quick_json_report_has_expected_series() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig_tree_policy"), &["--quick"]);
    assert_schema(&doc, "fig_tree_policy");
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    assert_eq!(sweeps.len(), 1, "{:?}", names(sweeps));
    let series = sweeps[0].get("series").unwrap().as_array().unwrap();
    assert_eq!(names(series), ["fifo", "wfq", "lstf", "hclock", "hfsc"]);
    let batches: Vec<f64> = sweeps[0]
        .get("param_values")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(batches, [1.0, 8.0, 64.0]);
    for s in series {
        for v in s.get("values").unwrap().as_array().unwrap() {
            let cost = v.as_f64().expect("policy costs are numbers");
            assert!(cost > 0.0, "costs are positive, got {cost}");
        }
    }
}

#[test]
fn fig19_quick_json_report_has_expected_series() {
    let doc = run_and_parse(env!("CARGO_BIN_EXE_fig19_pfabric_fct"), &["--quick"]);
    assert_schema(&doc, "fig19_pfabric_fct");
    assert_eq!(doc.get("quick").unwrap().as_bool(), Some(true));
    let sweeps = doc.get("sweeps").unwrap().as_array().unwrap();
    let sweep_names = names(sweeps);
    assert_eq!(
        sweeps.len(),
        5,
        "3 NFCT panels + throughput + backend comparison: {sweep_names:?}"
    );
    for tag in ["throughput", "backend"] {
        assert!(
            sweep_names.iter().any(|n| n.contains(tag)),
            "{sweep_names:?}"
        );
    }
    for sweep in &sweeps[..3] {
        let series = sweep.get("series").unwrap().as_array().unwrap();
        assert_eq!(names(series), ["DCTCP", "pFabric", "pFabric-Approx"]);
    }
}

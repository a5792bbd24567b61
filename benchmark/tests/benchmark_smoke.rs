//! Runs every workload at smoke size through both binaries and checks the
//! output contract: each run is correct with no failed operation, every
//! metric `BENCHMARK.json` names is printed with its unit, the Chrome
//! traces parse, and `compare` judges medians against the bounds.

use hwdbg_benchmark::json::{self, Value};
use hwdbg_benchmark::SPEC;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn spec_list(key: &str) -> Vec<(String, String)> {
    let spec = json::parse(SPEC).unwrap();
    spec.get(key)
        .unwrap()
        .arr()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::str).unwrap_or_default().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs every workload once at smoke size, with `dir` as the Cargo target
/// directory (so its files land in `dir/bench-trace`), and returns the
/// `--out` file.
fn run_all(bin: &str, dir: &Path) -> Value {
    std::fs::create_dir_all(dir).unwrap();
    let out_file = dir.join("runs.json");
    let out = Command::new(bin)
        .env("CARGO_TARGET_DIR", dir)
        .args(["--smoke", "--seed", "3", "--out"])
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{bin} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(&std::fs::read_to_string(out_file).unwrap()).unwrap()
}

fn check_runs(doc: &Value, metrics_key: &str) {
    let workloads = spec_list("workloads");
    let runs = doc.get("runs").unwrap().arr();
    assert_eq!(runs.len(), workloads.len());
    for (run, (workload, _)) in runs.iter().zip(&workloads) {
        assert_eq!(
            run.get("workload").and_then(Value::str),
            Some(workload.as_str())
        );
        let result = run.get("result").unwrap();
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(
            result.get("failed").and_then(Value::num),
            Some(0.0),
            "{workload}"
        );
        assert!(result.get("attempted").and_then(Value::num).unwrap() >= 1.0);
        let metrics = result.get("metrics").unwrap();
        for (name, unit) in spec_list(metrics_key) {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            assert!(
                m.get("value")
                    .and_then(Value::num)
                    .is_some_and(f64::is_finite),
                "{workload}: {name}"
            );
            assert_eq!(
                m.get("unit").and_then(Value::str),
                Some(unit.as_str()),
                "{workload}: {name}"
            );
        }
        assert_eq!(
            metrics.members().len(),
            spec_list(metrics_key).len(),
            "{workload}: stray metrics"
        );
    }
}

#[test]
fn end_to_end_run_prints_every_metric() {
    let dir = tmp("smoke-e2e");
    let doc = run_all(env!("CARGO_BIN_EXE_benchmark"), &dir);
    check_runs(&doc, "end_to_end");
    for run in doc.get("runs").unwrap().arr() {
        let metrics = run.get("result").unwrap().get("metrics").unwrap();
        for (name, _) in spec_list("end_to_end") {
            let v = metrics
                .get(&name)
                .unwrap()
                .get("value")
                .and_then(Value::num)
                .unwrap();
            assert!(v > 0.0, "{name} must never be 0");
        }
    }
}

#[test]
fn traced_run_prints_every_layer_metric_and_a_trace() {
    let dir = tmp("smoke-trace");
    let doc = run_all(env!("CARGO_BIN_EXE_benchmark-trace"), &dir);
    check_runs(&doc, "per_layer");
    for (workload, _) in spec_list("workloads") {
        let text =
            std::fs::read_to_string(dir.join("bench-trace").join(format!("{workload}.json")))
                .unwrap();
        let trace = json::parse(&text).unwrap_or_else(|e| panic!("{workload} trace: {e}"));
        let events = trace.get("traceEvents").unwrap().arr();
        assert!(!events.is_empty(), "{workload}: empty trace");
        assert!(events
            .iter()
            .all(|e| e.get("dur").and_then(Value::num).is_some()));
    }
}

/// A results file with every (workload, end-to-end metric) at 1.0, except
/// `soc_soak`'s `op_p50_ms` at `p50`.
fn synthetic(p50: f64) -> String {
    let mut doc = String::from("{\"runs\": [");
    for (i, (workload, _)) in spec_list("workloads").iter().enumerate() {
        let metrics: Vec<String> = spec_list("end_to_end")
            .iter()
            .map(|(name, unit)| {
                let v = if workload == "soc_soak" && name == "op_p50_ms" {
                    p50
                } else {
                    1.0
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = write!(
            doc,
            "{}{{\"workload\": \"{workload}\", \"seed\": 1, \"result\": {{\"correct\": true, \
             \"attempted\": 1, \"failed\": 0, \"metrics\": {{{}}}}}}}",
            if i == 0 { "" } else { ", " },
            metrics.join(", ")
        );
    }
    doc.push_str("]}");
    doc
}

#[test]
fn compare_flags_only_changes_beyond_the_bound() {
    let dir = tmp("smoke-compare");
    std::fs::create_dir_all(&dir).unwrap();
    let bound = json::parse(SPEC)
        .unwrap()
        .get("end_to_end")
        .unwrap()
        .arr()
        .iter()
        .find(|m| m.get("name").and_then(Value::str) == Some("op_p50_ms"))
        .and_then(|m| m.get("bound")?.num())
        .unwrap();
    let compare = |p50: f64| {
        let (a, b) = (dir.join("a.json"), dir.join(format!("b{p50}.json")));
        std::fs::write(&a, synthetic(1.0)).unwrap();
        std::fs::write(&b, synthetic(p50)).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .arg("compare")
            .args([&a, &b])
            .output()
            .unwrap();
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let (ok, text) = compare(1.0 + bound / 2.0);
    assert!(ok, "a change within the bound must pass:\n{text}");
    let (ok, text) = compare(1.0 + bound * 2.0);
    assert!(!ok, "a change beyond the bound must fail:\n{text}");
    assert!(text
        .lines()
        .any(|l| l.contains("soc_soak") && l.contains("op_p50_ms") && l.contains("WORSE")));
    let (ok, _) = compare(1.0 - bound * 2.0);
    assert!(ok, "an improvement is not a regression");
}

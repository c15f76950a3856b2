//! A tiny-size pass of every workload, traced and untraced, through the
//! same code path and correctness checks as a benchmark run.

use serde::value::Value;
use std::path::PathBuf;
use tpbench::{run_workload, Outcome, RunOpts, Size, WORKLOADS};

fn scratch() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tpbench-tiny");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn tiny(workload: &str, seed: u64, traced: bool) -> Outcome {
    let opts = RunOpts {
        seed,
        seconds: 1.0,
        traced,
        size: Size::Tiny,
        scratch: scratch(),
    };
    let out = run_workload(workload, &opts).expect("workload runs");
    assert!(
        out.checks.all_passed(),
        "{workload}: {:?}",
        out.checks.failures
    );
    assert!(out.checks.attempted > 0, "{workload}: nothing checked");
    assert!(out.metrics_valid(), "{workload}: {:?}", out.metrics);
    out
}

fn names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

fn bench_names(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Seq(list)) = bench.get(section) else {
        panic!("no {section} list");
    };
    list.iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(name)) => name.clone(),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

fn sorted(mut names: Vec<String>) -> Vec<String> {
    names.sort();
    names
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_listed_metric() {
    let e2e = sorted(bench_names("end_to_end"));
    let per_layer = sorted(bench_names("per_layer"));
    for workload in WORKLOADS {
        let plain = tiny(workload, 3, false);
        assert_eq!(sorted(names(&plain)), e2e, "{workload}: end-to-end metrics");
        let result: Value = serde_json::from_str(&plain.result_json()).expect("result parses");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));

        let traced = tiny(workload, 3, true);
        assert!(!traced.spans_jsonl.is_empty(), "{workload}: no spans");
        assert_eq!(
            sorted(names(&traced)),
            per_layer,
            "{workload}: per-layer metrics"
        );
        assert!(
            !traced.workload_metrics.is_empty(),
            "{workload}: no workload figures"
        );
    }
}

fn field_count(out: &Outcome, key: &str) -> f64 {
    let (_, spec) = out
        .details
        .iter()
        .find(|(k, _)| k == "spec")
        .expect("field spec detail");
    spec.get(key)
        .and_then(Value::as_f64)
        .expect("count present")
}

#[test]
fn field_geometry_does_not_depend_on_the_seed() {
    let a = tiny("field_100k", 1, false);
    let b = tiny("field_100k", 2, false);
    assert_eq!(
        field_count(&a, "sample_attempts"),
        field_count(&b, "sample_attempts")
    );
    let (ea, eb) = (
        field_count(&a, "engine_events"),
        field_count(&b, "engine_events"),
    );
    assert!(ea > 0.0 && (ea - eb).abs() / ea < 0.05, "{ea} vs {eb}");
}

//! Short-mode smoke runs of every workload: each prints every metric that
//! `BENCHMARK.json` names, with its unit, and a corrupted expected output
//! drives `success_rate` below 1.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;
use std::sync::{Mutex, PoisonError};

use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Bench {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Workload>,
    end_to_end: Vec<EndToEnd>,
    per_layer: Vec<Layer>,
}

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
    why: String,
}

#[derive(Debug, Deserialize)]
struct EndToEnd {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

#[derive(Debug, Deserialize)]
struct Layer {
    name: String,
    unit: String,
    better: String,
}

fn bench() -> Bench {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b: Bench = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert!(!b.command.is_empty() && !b.paths.is_empty() && b.run_seconds > 0);
    for w in &b.workloads {
        assert!(!w.why.is_empty(), "{} says why", w.name);
    }
    for m in &b.end_to_end {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        assert!(
            m.better == "lower" || m.better == "higher",
            "{} direction",
            m.name
        );
    }
    for m in &b.per_layer {
        assert!(
            m.better == "lower" || m.better == "higher",
            "{} direction",
            m.name
        );
    }
    b
}

/// Runs one short workload and returns its last stdout line. Runs are
/// serialized: two at once would share the cores they time.
fn run(workload: &str, trace: bool, corrupt: bool) -> String {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--short",
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let out = cmd.output().expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload} exits 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line, checking its unit.
fn metric(result: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {result}"))
        + key.len();
    let rest = &result[at..];
    let end = rest.find(',').expect("value is followed by its unit");
    let tail = format!(",\"unit\":\"{unit}\"}}");
    assert!(
        rest[end..].starts_with(&tail),
        "{name} is reported in {unit}: {rest}"
    );
    rest[..end].parse().expect("a number")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let b = bench();
    for w in &b.workloads {
        let result = run(&w.name, false, false);
        assert!(
            result.starts_with("{\"correct\":true,"),
            "{}: {result}",
            w.name
        );
        for m in &b.end_to_end {
            let v = metric(&result, &m.name, &m.unit);
            assert!(v > 0.0, "{} {} is never 0", w.name, m.name);
        }
        assert_eq!(metric(&result, "success_rate", "ratio"), 1.0);

        let traced = run(&w.name, true, false);
        assert!(
            traced.starts_with("{\"correct\":true,"),
            "{} traced: {traced}",
            w.name
        );
        for m in &b.per_layer {
            metric(&traced, &m.name, &m.unit);
        }
    }
}

#[test]
fn a_corrupted_expected_output_lowers_success_rate() {
    for w in &bench().workloads {
        let result = run(&w.name, false, true);
        assert!(
            result.starts_with("{\"correct\":false,"),
            "{}: {result}",
            w.name
        );
        assert!(metric(&result, "success_rate", "ratio") < 1.0, "{}", w.name);
    }
}

//! Self-tests of the benchmark: every output check fails the run (a
//! non-zero exit) when its expectation is perturbed, and clean runs pass
//! and print exactly the metrics `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Output;

fn run(workload: &str, trace: u8, perturb: &str) -> Output {
    let out_dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}-{perturb}"));
    std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--perturb", perturb, "--out-dir"])
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs")
}

fn assert_fails(workload: &str, trace: u8, perturb: &str) {
    let out = run(workload, trace, perturb);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{workload} --perturb {perturb} passed:\n{stderr}");
    assert!(stderr.contains("CHECK FAILED"), "{workload} --perturb {perturb}:\n{stderr}");
}

#[test]
fn a_refused_batch_fails_the_receipt_check() {
    assert_fails("fleet-closed", 0, "receipts");
}

#[test]
fn a_wrong_expected_count_fails_the_count_check() {
    assert_fails("fleet-closed", 0, "counts");
}

#[test]
fn a_wrong_reference_fitness_fails_the_fitness_check() {
    assert_fails("fleet-closed", 0, "fitness");
    assert_fails("fleet-closed", 1, "fitness");
}

#[test]
fn a_wrong_reference_state_fails_the_recovery_check() {
    assert_fails("fleet-closed", 0, "recovery");
    assert_fails("taxi-live", 0, "recovery");
}

#[test]
fn a_wrong_shadow_state_fails_the_bitwise_check() {
    assert_fails("fleet-closed", 1, "shadow");
}

/// Metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\"per_layer\"").map_or(body.len(), |i| i + 1);
    body[..end]
        .split("{\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("quoted name").to_string())
        .collect()
}

fn assert_clean(workload: &str, trace: u8, section: &str) {
    let out = run(workload, trace, "none");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}:\n{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
    let names = declared(section);
    assert!(!names.is_empty());
    for name in &names {
        assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{workload} lacks {name}");
    }
    assert_eq!(last.matches("\"unit\"").count(), names.len(), "{workload} prints extra metrics");
}

#[test]
fn clean_runs_print_every_declared_metric() {
    assert_clean("fleet-closed", 0, "end_to_end");
    assert_clean("fleet-closed", 1, "per_layer");
    assert_clean("taxi-live", 0, "end_to_end");
    assert_clean("taxi-live", 1, "per_layer");
}

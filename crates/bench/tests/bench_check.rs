//! `bench_check`'s exit status on hand-written BENCH files.
// Test helpers unwrap outside #[test] fns; a failure there is a test failure.
#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::Command;

fn gate(name: &str, measured: &str, threshold: &str, enforced: bool, pass: bool) -> String {
    format!(
        r#"{{"name": "{name}", "measured": {measured}, "op": ">=", "threshold": {threshold}, "enforced": {enforced}, "pass": {pass}}}"#
    )
}

fn bench_file(tag: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "nassim-bench-check-{}-{tag}.json",
        std::process::id()
    ));
    std::fs::write(&path, body).unwrap();
    path
}

fn exit_code(args: &[&str], path: &PathBuf) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .args(args)
        .arg(path)
        .output()
        .unwrap();
    std::fs::remove_file(path).ok();
    out.status.code()
}

fn with_gates(gates: &[String]) -> String {
    format!(r#"{{"runs": 3, "gates": [{}]}}"#, gates.join(", "))
}

#[test]
fn passing_enforced_gates_exit_zero() {
    let f = bench_file(
        "pass",
        &with_gates(&[gate("speedup", "2.5", "2", true, true)]),
    );
    assert_eq!(exit_code(&["--require-enforced"], &f), Some(0));
}

#[test]
fn a_failed_enforced_gate_exits_non_zero() {
    let f = bench_file(
        "fail",
        &with_gates(&[gate("speedup", "1.5", "2", true, false)]),
    );
    assert_eq!(exit_code(&[], &f), Some(1));
}

#[test]
fn a_report_only_failure_exits_zero() {
    let f = bench_file(
        "report-only",
        &with_gates(&[gate("speedup", "1.5", "2", false, false)]),
    );
    assert_eq!(exit_code(&[], &f), Some(0));
}

#[test]
fn require_enforced_rejects_an_unenforced_gate() {
    let f = bench_file(
        "unenforced",
        &with_gates(&[gate("speedup", "2.5", "2", false, true)]),
    );
    assert_eq!(exit_code(&["--require-enforced"], &f), Some(1));
}

#[test]
fn a_file_without_gates_exits_non_zero() {
    let f = bench_file("no-gates", r#"{"runs": 3}"#);
    assert_eq!(exit_code(&[], &f), Some(1));
}

#[test]
fn a_recorded_pass_that_contradicts_its_comparison_exits_non_zero() {
    let f = bench_file(
        "forged",
        &with_gates(&[gate("speedup", "1.5", "2", true, true)]),
    );
    assert_eq!(exit_code(&[], &f), Some(1));
}

//! Smoke tests: run every example binary to completion with a small
//! workload (`ISB_EXAMPLE_SCALE_DIV`), so the examples cannot silently rot.

use std::process::Command;

fn run_example(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .env("ISB_EXAMPLE_SCALE_DIV", "50")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {}:\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn quickstart_runs() {
    let out = run_example(env!("CARGO_BIN_EXE_quickstart"), &[]);
    assert!(out.contains("set holds"), "unexpected output:\n{out}");
}

#[test]
fn crash_recovery_runs() {
    // Fixed seed for reproducibility; the binary's own assertions validate
    // exactly-once recovery.
    let out = run_example(env!("CARGO_BIN_EXE_crash_recovery"), &["3"]);
    assert!(out.contains("replayed exactly-once"), "unexpected output:\n{out}");
    assert!(out.contains("no acknowledged value lost"), "unexpected output:\n{out}");
}

#[test]
fn kv_index_runs() {
    let out = run_example(env!("CARGO_BIN_EXE_kv_index"), &[]);
    assert!(out.contains("invariants OK"), "unexpected output:\n{out}");
}

#[test]
fn restart_kv_runs() {
    let out = run_example(env!("CARGO_BIN_EXE_restart_kv"), &[]);
    assert!(out.contains("2 cataloged structures"), "unexpected output:\n{out}");
    assert!(out.contains("no acked work lost"), "unexpected output:\n{out}");
    assert!(
        out.contains("cross-process multi-structure recovery complete"),
        "unexpected output:\n{out}"
    );
}

#[test]
fn kv_demo_runs() {
    let out = run_example(env!("CARGO_BIN_EXE_kv_demo"), &[]);
    assert!(out.contains("byte-identical"), "unexpected output:\n{out}");
    assert!(out.contains("kv service demo OK"), "unexpected output:\n{out}");
}

#[test]
fn pipeline_runs() {
    let out = run_example(env!("CARGO_BIN_EXE_pipeline"), &[]);
    assert!(out.contains("reconciled total"), "unexpected output:\n{out}");
}

#[test]
fn heap_usage_runs() {
    let out = run_example(env!("CARGO_BIN_EXE_heap_usage"), &[]);
    assert!(out.contains("live keys") && out.contains("B/key"), "unexpected output:\n{out}");
    // Each section's descriptor row counts the blocks of its class: the
    // map's two lines, the queue's one; and each section's nodes are half
    // blocks, a row of their own.
    let blocks = |section: &str, row: &str| {
        out.split(section)
            .nth(1)
            .and_then(|s| s.lines().find_map(|l| l.trim().strip_prefix(row)))
            .and_then(|rest| rest.split(')').next())
            .and_then(|n| n.parse::<u64>().ok())
    };
    for (section, row) in [
        ("map:", "two-line descriptors ("),
        ("queue:", "one-line descriptors ("),
        ("map:", "nodes, half blocks ("),
        ("queue:", "nodes, half blocks ("),
    ] {
        let n = blocks(section, row);
        assert!(n.is_some_and(|n| n > 0), "{section} no {row}…) blocks counted:\n{out}");
    }
}

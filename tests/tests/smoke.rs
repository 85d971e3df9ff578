//! Smoke tests for the figure pipeline: every experiment binary in
//! `crates/bench/src/bin/` must run end-to-end at a tiny `--scale`, so the
//! reproduction of the paper's evaluation can never silently rot.
//!
//! Each test shells out through `cargo run` (using the same cargo that is
//! driving this test run), which reuses the build cache; the binaries are
//! exercised with a deliberately small workload so the whole smoke suite
//! stays in the seconds range.

use std::process::Command;

fn run_experiment(name: &str, extra: &[&str]) -> String {
    let mut args = vec![
        "run",
        "--quiet",
        "-p",
        "fairnn-bench",
        "--bin",
        name,
        "--",
        "--scale",
        "0.05",
        "--repetitions",
        "40",
        "--queries",
        "2",
        "--seed",
        "7",
    ];
    args.extend_from_slice(extra);
    let output = Command::new(env!("CARGO"))
        .args(&args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn `cargo run --bin {name}`: {e}"));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{name} exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(
        !stdout.trim().is_empty(),
        "{name} produced no output on stdout"
    );
    stdout
}

#[test]
fn fig1_fairness_runs_at_tiny_scale() {
    let out = run_experiment("fig1_fairness", &[]);
    assert!(
        out.contains("Figure 1"),
        "unexpected fig1_fairness output:\n{out}"
    );
}

#[test]
fn fig2_approximate_runs_at_tiny_scale() {
    let out = run_experiment("fig2_approximate", &[]);
    assert!(
        out.contains("Figure 2"),
        "unexpected fig2_approximate output:\n{out}"
    );
}

#[test]
fn fig3_cost_ratio_runs_at_tiny_scale() {
    let out = run_experiment("fig3_cost_ratio", &[]);
    assert!(
        out.contains("Figure 3"),
        "unexpected fig3_cost_ratio output:\n{out}"
    );
}

#[test]
fn table_query_cost_runs_at_tiny_scale() {
    let out = run_experiment("table_query_cost", &[]);
    assert!(
        out.contains("cost"),
        "unexpected table_query_cost output:\n{out}"
    );
}

#[test]
fn fig1_fairness_reports_the_sharded_engine() {
    let out = run_experiment("fig1_fairness", &["--threads", "2"]);
    assert!(
        out.contains("sharded engine vs uniform"),
        "missing engine battery table:\n{out}"
    );
    assert!(
        out.contains("mean TV sharded"),
        "missing engine summary:\n{out}"
    );
}

#[test]
fn obs_overhead_runs_at_tiny_scale() {
    // A batch of 8 keeps the measured rounds far below the 50 ms the budget
    // needs, so this checks that the binary runs and that instrumented
    // answers stay bit-identical; the timing budget itself is a CI step.
    let out = run_experiment("obs_overhead", &["--threads", "2", "--repetitions", "8"]);
    assert!(
        out.contains("observability overhead"),
        "unexpected obs_overhead output:\n{out}"
    );
    assert!(out.contains("budget"), "no budget verdict:\n{out}");
}

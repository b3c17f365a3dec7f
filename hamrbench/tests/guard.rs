//! The benchmark refuses to run when an engine variable is set.

use std::process::Command;

#[test]
fn an_engine_variable_stops_the_run_before_any_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hamrbench"))
        .args([
            "--workload",
            "wordcount",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("HAMR_STATS", "full:1")
        .output()
        .expect("the benchmark starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("HAMR_STATS"));
}

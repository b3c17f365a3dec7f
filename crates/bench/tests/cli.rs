//! The `hamr` operator CLI end to end: `hamr doctor` rebuilds a flight
//! record from a journal, also one whose retention deleted the failed
//! job's start, and keeps its exit-code contract, and
//! `hamr trace` writes its trace files and reports the skewed run's
//! flow-control stalls.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{deadlock_config, fast_watchdog, temp_dir, wordcount};
use hamr_core::{Cluster, ClusterConfig, Supervision};
use hamr_trace::{read_journal, Journal, JournalConfig, JournalRecord};
use std::path::Path;
use std::process::Command;

/// Journal one supervised WordCount (`wc-clean` or `wc-deadlock`) on
/// 3 nodes into `dir`, under a fast abort-mode watchdog. With `wedge`,
/// the shuffle deadlocks and the watchdog aborts it.
fn journal_wordcount(dir: &Path, wedge: bool) {
    let (config, name) = if wedge {
        (deadlock_config(), "wc-deadlock")
    } else {
        (ClusterConfig::local(3, 2), "wc-clean")
    };
    let cluster = Cluster::new(config);
    cluster.enable_journal(dir).expect("enable journal");
    let sup = Supervision {
        watchdog: fast_watchdog(),
        ..Default::default()
    };
    let result = cluster.run_supervised(wordcount(name, 400), sup);
    assert_eq!(result.is_err(), wedge, "only the wedged run fails");
}

/// Run `hamr <args>` in `cwd`: (exit code, stdout).
fn hamr(args: &[&str], cwd: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hamr"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn hamr");
    let stdout = String::from_utf8_lossy(&out.stdout).into();
    (out.status.code(), stdout)
}

#[test]
fn doctor_ranks_the_wedged_job_and_exits_1_even_past_retention() {
    let dir = temp_dir("hamr_cli", "wedged");
    journal_wordcount(&dir, false);
    journal_wordcount(&dir, true);
    // No job named: the newest failed or tripped job is diagnosed.
    let (code, text) = hamr(&["doctor", dir.to_str().unwrap()], &std::env::temp_dir());
    assert_eq!(code, Some(1), "{text}");
    let findings: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "diagnosis (ranked):")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    assert!(
        findings[0].contains("1. watchdog tripped") && findings[0].contains("backpressure"),
        "the trip leads: {text}"
    );
    assert!(
        findings[1].contains("-> node 1:") && findings[1].contains("stuck in flow control"),
        "the stuck edge toward the ack-dropper, attributed to flow control: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.contains("bins deferred by flow control")),
        "the deferred-bins gauge hot spot: {findings:?}"
    );

    // Replay the journal under a 4 KiB retention budget: appending
    // rotates and deletes segments as a run journaling past its budget
    // does, and every JobStart goes. The failed job must still be found.
    let small = temp_dir("hamr_cli", "retained");
    let journal = Journal::open(JournalConfig {
        segment_bytes: 1024,
        max_total_bytes: 4096,
        ..JournalConfig::new(&small)
    })
    .expect("open small journal");
    for record in read_journal(&dir).expect("read journal").records {
        journal.append(&record);
    }
    journal.flush();
    let kept = read_journal(&small).expect("read small journal").records;
    assert!(
        !kept
            .iter()
            .any(|r| matches!(r, JournalRecord::JobStart { .. })),
        "retention deleted every JobStart"
    );
    let (code, text) = hamr(&["doctor", small.to_str().unwrap()], &std::env::temp_dir());
    assert_eq!(code, Some(1), "{text}");
    assert!(
        text.contains("job \"wc-deadlock\" (unknown engine)"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&small);
}

#[test]
fn doctor_exits_0_on_a_clean_journal_and_2_on_a_missing_one() {
    let dir = temp_dir("hamr_cli", "clean");
    let doctor = |args: &[&str]| {
        let mut argv = vec!["doctor", dir.to_str().unwrap()];
        argv.extend(args);
        hamr(&argv, &std::env::temp_dir())
    };
    assert_eq!(doctor(&[]).0, Some(2), "missing journal dir");
    journal_wordcount(&dir, false);
    let (code, text) = doctor(&[]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("failed or tripped"), "{text}");
    assert_eq!(doctor(&["wc-clean"]).0, Some(0), "the clean job, named");
    assert_eq!(doctor(&["no-such-job"]).0, Some(2), "unknown job");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_writes_timelines_and_reports_skewed_stalls() {
    let dir = temp_dir("hamr_cli", "trace");
    std::fs::create_dir_all(&dir).expect("create cwd");
    let (code, text) = hamr(&["trace"], &dir);
    assert_eq!(code, Some(0), "{text}");
    for file in ["trace_hamr.json", "trace_mapred.json"] {
        assert!(dir.join(file).is_file(), "{file} written");
    }
    let stalls: u64 = text
        .lines()
        .find_map(|l| {
            l.split(", ")
                .nth(1)?
                .strip_suffix(" flow-control stalls (skewed run)")
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no stall line: {text}"));
    assert!(stalls > 0, "the window-1 run stalls: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

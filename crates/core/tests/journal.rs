//! The durable flight journal end to end: a healthy run and a
//! fault-injected run journal into the same directory, and the
//! offline timeline reconstructs both — the completed job with its
//! epoch metrics, the wedged job with its watchdog incident and stuck
//! edge, and an alert rule that demonstrably fires on the wedged run
//! while staying silent on the healthy one.

mod common;

use common::{deadlock_config, fast_watchdog, temp_dir, wordcount};
use hamr_core::{Cluster, ClusterConfig, RunError, Supervision};
use hamr_trace::{AlertRule, Journal, JournalConfig, JournalRecord, Timeline, WatchdogClass};

/// The rule under test: any deferred shuffle bin held for two
/// consecutive watchdog epochs. A healthy quick run never defers that
/// long; a backpressure deadlock defers forever.
fn deferred_rule() -> AlertRule {
    AlertRule::gauge_high_water("deferred-bins-high-water", "deferred_bins", 1, 2)
}

#[test]
fn timeline_reconstructs_a_clean_and_a_killed_run_from_one_journal() {
    let dir = temp_dir("hamr_journal_e2e", "reconstruct");

    // Chapter 1: a healthy audited run. The custom alert rule is
    // armed and must stay silent.
    {
        let cluster = Cluster::new(ClusterConfig::local(3, 2));
        cluster.enable_journal(&dir).expect("enable journal");
        cluster.alert_rules(vec![deferred_rule()]);
        let (result, report) = cluster
            .run_supervised(
                wordcount("wc-clean", 200),
                Supervision {
                    watchdog: fast_watchdog(),
                    ..Default::default()
                },
            )
            .expect("healthy run");
        report.check().expect("custody holds");
        assert!(
            result.metrics.shuffled_bytes > 0,
            "hash shuffle moved bytes"
        );
        assert!(
            cluster.alert_log().is_empty(),
            "alert fired on a healthy run: {:?}",
            cluster.alert_log()
        );
    }

    // Chapter 2: same journal directory, but node 1 drops every
    // flow-control ack — the shuffle wedges, the watchdog aborts, and
    // the deferred-bins rule must fire while the job is still wedged.
    {
        let cluster = Cluster::new(deadlock_config());
        cluster.enable_journal(&dir).expect("reopen journal");
        cluster.alert_rules(vec![deferred_rule()]);
        let err = cluster
            .run_supervised(
                wordcount("wc-deadlock", 400),
                Supervision {
                    watchdog: fast_watchdog(),
                    ..Default::default()
                },
            )
            .expect_err("dropped acks must wedge the shuffle");
        let RunError::Watchdog { class, .. } = err else {
            panic!("expected a watchdog abort, got: {err}");
        };
        assert_eq!(class, WatchdogClass::Backpressure);
        let log = cluster.alert_log();
        assert!(
            log.iter()
                .any(|ev| ev.firing && ev.rule == "deferred-bins-high-water"),
            "deferred-bins rule did not fire on the wedged run: {log:?}"
        );
    }

    // Chapter 3: simulate a process killed mid-job — a JobStart with
    // no matching JobEnd appended after both clusters are gone.
    {
        let journal = Journal::open(JournalConfig::new(&dir)).expect("reopen for tail");
        journal.append(&JournalRecord::JobStart {
            job: "wc-killed".into(),
            engine: "hamr".into(),
            t_us: journal.now_us(),
        });
    }

    // The offline reconstruction: both completed jobs with their
    // verdicts, the incident and stuck edge on the wedged one, the
    // alert firing, and the killed job flagged as unfinished.
    let timeline = Timeline::load(&dir).expect("load timeline");
    let clean = timeline
        .jobs
        .iter()
        .find(|j| j.job == "wc-clean")
        .expect("clean job in timeline");
    assert_eq!(clean.ok, Some(true));
    assert!(
        clean.shuffled_bytes.unwrap_or(0) > 0,
        "clean job carries its epoch's shuffled bytes: {clean:?}"
    );
    assert!(clean.incidents.is_empty(), "{clean:?}");

    let wedged = timeline
        .jobs
        .iter()
        .find(|j| j.job == "wc-deadlock")
        .expect("wedged job in timeline");
    assert_eq!(wedged.ok, Some(false));
    assert!(wedged.error.is_some(), "JobEnd carries the error text");
    assert!(
        wedged
            .incidents
            .iter()
            .any(|i| i.class == WatchdogClass::Backpressure),
        "incident journaled with its classification: {:?}",
        wedged.incidents
    );
    let audit = wedged.audit.as_ref().expect("audit epoch journaled");
    assert!(
        audit.stuck_rows().iter().any(|(row, _)| row.dst == 1),
        "audit epoch names the edge stuck toward the ack-dropper: {audit:?}"
    );
    assert!(
        wedged.alerts_fired >= 1,
        "alert firing attributed to the wedged job: {wedged:?}"
    );
    assert!(
        timeline
            .alerts
            .iter()
            .any(|a| a.firing && a.rule == "deferred-bins-high-water"),
        "alert transition persisted: {:?}",
        timeline.alerts
    );

    let unfinished = timeline.unfinished();
    assert!(
        unfinished.iter().any(|j| j.job == "wc-killed"),
        "killed-mid-flight job reported unfinished: {unfinished:?}"
    );
    let rendered = timeline.render();
    assert!(rendered.contains("wc-clean"), "{rendered}");
    assert!(rendered.contains("wc-deadlock"), "{rendered}");
    assert!(rendered.contains("KILLED MID-FLIGHT"), "{rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `HAMR_JOURNAL` env hookup: `auto` gives each cluster its own
/// per-process subdirectory and `Timeline::load` on the parent merges
/// them. Env vars are process-global, so this test sets the explicit
/// directory form only long enough to build one cluster.
#[test]
fn env_var_enables_the_journal_for_a_cluster() {
    let dir = temp_dir("hamr_journal_e2e", "envvar");
    std::env::set_var("HAMR_JOURNAL", &dir);
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    std::env::remove_var("HAMR_JOURNAL");
    assert_eq!(
        cluster.journal_dir().as_deref(),
        Some(dir.as_path()),
        "cluster picked the journal up from the environment"
    );
    cluster
        .run_audited(wordcount("wc-env", 100))
        .expect("healthy run");
    drop(cluster);
    let timeline = Timeline::load(&dir).expect("load timeline");
    assert!(
        timeline
            .jobs
            .iter()
            .any(|j| j.job == "wc-env" && j.ok == Some(true)),
        "{:?}",
        timeline.jobs
    );
    let _ = std::fs::remove_dir_all(&dir);
}

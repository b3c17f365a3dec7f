//! The self-verification layer end to end: audited runs prove bin
//! conservation on healthy jobs, and injected faults — a node that
//! swallows its completion broadcasts, a node that drops flow-control
//! acks — must trip the watchdog with the right classification, abort
//! the run instead of hanging, and leave the evidence in the journal
//! from which `hamr doctor` rebuilds the flight record.

mod common;

use common::{deadlock_config, fast_watchdog, temp_dir, wordcount};
use hamr_core::{
    Cluster, ClusterConfig, FaultInjection, RunError, Supervision, WatchdogAction, WatchdogConfig,
};
use hamr_trace::{AuditStage, FlightRecord, Labels, Timeline, WatchdogClass};
use std::path::Path;
use std::time::Duration;

/// The flight record `hamr doctor` rebuilds for `job` from a journal.
fn journaled_record(dir: &Path, job: &str) -> FlightRecord {
    let timeline = Timeline::load(dir).expect("journal loads");
    timeline
        .doctor_span(Some(job))
        .unwrap_or_else(|| panic!("job {job} in journal: {:?}", timeline.jobs))
        .flight_record()
}

#[test]
fn audited_run_proves_conservation_on_a_healthy_job() {
    let cluster = Cluster::new(ClusterConfig::local(3, 2));
    let (result, report) = cluster
        .run_audited(wordcount("wc-clean", 200))
        .expect("healthy run");
    report
        .check()
        .unwrap_or_else(|v| panic!("custody violated on a healthy job: {v:?}"));
    assert!(
        report.total(AuditStage::Consume).bins > 0,
        "bins moved through the ledger"
    );
    assert!(
        cluster.watchdog_events().is_empty(),
        "healthy job raised watchdog events: {:?}",
        cluster.watchdog_events()
    );
    let mut out = result.typed_output::<String, u64>(2);
    out.sort();
    assert_eq!(out.iter().find(|(k, _)| k == "alpha").unwrap().1, 400);
}

#[test]
fn swallowed_completion_trips_the_watchdog_as_hang() {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.fault = FaultInjection::SwallowEdgeComplete { node: 1 };
    let cluster = Cluster::new(config);
    let dir = temp_dir("hamr_doctor", "hang");
    cluster.enable_journal(&dir).expect("enable journal");
    let err = cluster
        .run_supervised(
            wordcount("wc-hang", 200),
            Supervision {
                watchdog: fast_watchdog(),
                ..Default::default()
            },
        )
        .expect_err("a swallowed EdgeComplete must not complete");
    let RunError::Watchdog {
        class,
        epoch,
        detail,
    } = err
    else {
        panic!("expected a watchdog abort, got: {err}");
    };
    assert_eq!(class, WatchdogClass::Hang, "detail: {detail}");
    // patience(5) idle epochs plus a handful of startup epochs: the
    // trip must come within a bounded number of epochs, not "eventually".
    assert!(epoch <= 60, "hang detected late, epoch {epoch}: {detail}");

    // The journal holds the post-mortem.
    let record = journaled_record(&dir, "wc-hang");
    let trip = record.trip.as_ref().expect("trip recorded");
    assert_eq!(trip.class, WatchdogClass::Hang);
    assert_eq!(record.job, "wc-hang");
    assert!(record.error.is_some(), "the aborted run's error text");
    let findings = record.diagnose();
    assert!(
        findings[0].contains("hang"),
        "diagnosis leads with the trip: {findings:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_acks_trip_the_watchdog_as_backpressure_deadlock() {
    let cluster = Cluster::new(deadlock_config());
    let dir = temp_dir("hamr_doctor", "backpressure");
    cluster.enable_journal(&dir).expect("enable journal");
    let err = cluster
        .run_supervised(
            wordcount("wc-deadlock", 400),
            Supervision {
                watchdog: fast_watchdog(),
                ..Default::default()
            },
        )
        .expect_err("dropped acks must wedge the shuffle");
    let RunError::Watchdog {
        class,
        epoch,
        detail,
    } = err
    else {
        panic!("expected a watchdog abort, got: {err}");
    };
    assert_eq!(class, WatchdogClass::Backpressure, "detail: {detail}");
    assert!(
        epoch <= 60,
        "deadlock detected late, epoch {epoch}: {detail}"
    );
    assert!(
        detail.contains("deferred"),
        "diagnostic names the deferred bins: {detail}"
    );

    // The post-mortem names a stuck edge toward the ack-dropping node.
    let record = journaled_record(&dir, "wc-deadlock");
    assert_eq!(
        record.trip.as_ref().expect("trip recorded").class,
        WatchdogClass::Backpressure
    );
    let gaps = record.audit.stuck_rows();
    assert!(
        gaps.iter().any(|(row, _)| row.dst == 1),
        "stuck rows name node 1: {gaps:?}"
    );
    let findings = record.diagnose();
    assert!(
        findings.iter().any(|f| f.contains("node 1")),
        "diagnosis names the stuck node: {findings:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warn_mode_records_the_incident_without_aborting_a_live_job() {
    // A healthy job under an aggressive warn-mode watchdog with a
    // microscopic epoch: even if an epoch boundary catches the run
    // mid-stall, warn mode must never turn a completing job into an
    // error.
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let (result, report) = cluster
        .run_supervised(
            wordcount("wc-warn", 100),
            Supervision {
                watchdog: WatchdogConfig {
                    epoch: Duration::from_millis(1),
                    patience: 2,
                    action: WatchdogAction::Warn,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("warn mode never aborts");
    report.check().expect("conservation still proven");
    assert!(result.typed_output::<String, u64>(2).len() > 4);
}

#[test]
fn watchdog_off_disables_monitoring_but_not_the_ledger() {
    let mut config = ClusterConfig::local(2, 2);
    config.runtime.bin_capacity = 8;
    let cluster = Cluster::new(config);
    let (_, report) = cluster
        .run_supervised(
            wordcount("wc-off", 50),
            Supervision {
                watchdog: WatchdogConfig {
                    action: WatchdogAction::Off,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("run");
    report.check().expect("audit independent of the watchdog");
    assert!(cluster.watchdog_events().is_empty());
}

#[test]
fn a_run_starts_its_gauges_from_zero() {
    // The cluster registry's gauge series outlive runs. Plant the
    // values an aborted run would leave behind — deferred bins and a
    // queued bin that will never drain — then run a healthy job.
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let node0 = || Labels::new().engine("hamr").node(0);
    let deferred = cluster.registry().gauge("deferred_bins", node0());
    let queued = cluster.registry().gauge("queue_depth", node0().flowlet(2));
    deferred.set(7);
    queued.set(3);
    let (_, report) = cluster
        .run_supervised(
            wordcount("wc-fresh", 200),
            Supervision {
                watchdog: fast_watchdog(),
                ..Default::default()
            },
        )
        .expect("healthy run");
    report.check().expect("conservation");
    assert!(
        cluster.watchdog_events().is_empty(),
        "stale gauges raised incidents: {:?}",
        cluster.watchdog_events()
    );
    assert_eq!((deferred.get(), queued.get()), (0, 0));
}

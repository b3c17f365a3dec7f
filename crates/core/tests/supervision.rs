//! The self-verification layer end to end: audited runs prove bin
//! conservation on healthy jobs, and injected faults — a node that
//! swallows its completion broadcasts, a node that drops flow-control
//! acks — must trip the watchdog with the right classification, abort
//! the run instead of hanging, and leave a parsable flight-recorder
//! dump behind for `tracedump --doctor`.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, FaultInjection, JobBuilder, JobGraph,
    RunError, Supervision, WatchdogAction, WatchdogConfig,
};
use hamr_trace::{AuditStage, FlightRecord, Labels, WatchdogClass};
use std::path::PathBuf;
use std::time::Duration;

/// WordCount over `lines` copies of a fixed corpus: loader -> map
/// (split words) -> partial reduce (sum), hash-shuffled across nodes.
fn wordcount(name: &str, lines: usize) -> JobGraph {
    let corpus: Vec<String> = (0..lines)
        .map(|i| format!("alpha beta gamma delta key{} alpha", i % 7))
        .collect();
    let mut job = JobBuilder::new(name);
    let loader = job.add_loader("lines", typed::vec_loader(corpus));
    let words = job.add_map(
        "split",
        typed::map_fn(|_line: u64, text: String, out: &mut Emitter| {
            for w in text.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let counts = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, words, Exchange::Local);
    job.connect(words, counts, Exchange::Hash);
    job.capture_output(counts);
    job.build().expect("wordcount graph")
}

/// A fast abort-mode watchdog for fault tests: 20ms epochs, patience 5
/// — trips within ~120ms of the wedge instead of the 1s default.
fn fast_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        epoch: Duration::from_millis(20),
        patience: 5,
        action: WatchdogAction::Abort,
        ..Default::default()
    }
}

/// Fresh per-test dump directory under the system temp dir.
fn dump_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamr_doctor_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    dir
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
    let dir = dump_dir("hang");
    let err = cluster
        .run_supervised(
            wordcount("wc-hang", 200),
            Supervision {
                watchdog: fast_watchdog(),
                doctor_dir: Some(dir.clone()),
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

    // The flight recorder dumped a parsable post-mortem.
    let path = dir.join("doctor_wc-hang.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing doctor dump {path:?}: {e}"));
    let record = FlightRecord::parse(&raw).expect("parsable flight record");
    let trip = record.trip.as_ref().expect("trip recorded");
    assert_eq!(trip.class, WatchdogClass::Hang);
    assert_eq!(record.job, "wc-hang");
    let findings = record.diagnose();
    assert!(
        findings[0].contains("hang"),
        "diagnosis leads with the trip: {findings:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_acks_trip_the_watchdog_as_backpressure_deadlock() {
    let mut config = ClusterConfig::local(3, 2);
    // One record per bin and a one-bin window: the shuffle wedges the
    // moment node 1 stops acking — every producer's window to node 1
    // stays full and deferred bins pile up behind it.
    config.runtime.bin_capacity = 1;
    config.runtime.out_window_bins = 1;
    config.runtime.fault = FaultInjection::DropAcks { node: 1 };
    let cluster = Cluster::new(config);
    let dir = dump_dir("backpressure");
    let err = cluster
        .run_supervised(
            wordcount("wc-deadlock", 400),
            Supervision {
                watchdog: fast_watchdog(),
                doctor_dir: Some(dir.clone()),
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
    let raw = std::fs::read_to_string(dir.join("doctor_wc-deadlock.json")).expect("doctor dump");
    let record = FlightRecord::parse(&raw).expect("parsable flight record");
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
                doctor_dir: None,
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
                doctor_dir: None,
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
                doctor_dir: None,
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

//! Integration test: the embedded introspection endpoint stays
//! scrapeable while a supervised job runs, and the scrape is valid
//! Prometheus text carrying the engine's series — node gauges
//! included, on plain runs as much as supervised ones.

use hamr_core::{typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, Supervision};
use hamr_trace::{http_get, parse_prometheus, AlertRule};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn wordcount_job(name: &str, lines: usize) -> hamr_core::JobGraph {
    let mut job = JobBuilder::new(name);
    let input: Vec<String> = (0..lines)
        .map(|i| format!("alpha{} beta{} gamma{}", i % 97, i % 13, i % 5))
        .collect();
    let loader = job.add_loader("lines", typed::vec_loader(input));
    let words = job.add_map(
        "split",
        typed::map_fn(|_line_no: u64, line: String, out: &mut Emitter| {
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let counts = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, words, Exchange::Local);
    job.connect(words, counts, Exchange::Hash);
    job.capture_output(counts);
    job.build().unwrap()
}

#[test]
fn metrics_endpoint_live_during_supervised_run() {
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    let addr = cluster.serve_introspection(0).expect("bind ephemeral");
    assert_eq!(cluster.introspection_addr(), Some(addr));

    // Hammer /metrics from a side thread while the job runs; every
    // response must be HTTP 200 and parse as Prometheus text.
    let stop = AtomicBool::new(false);
    let scrapes = std::thread::scope(|scope| {
        let stop = &stop;
        let poller = scope.spawn(move || {
            let mut good = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let (status, body) =
                    http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET /metrics");
                assert_eq!(status, 200);
                parse_prometheus(&body).expect("valid Prometheus text");
                good += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            good
        });
        for round in 0..2 {
            let job = wordcount_job(&format!("wc-live-{round}"), 20_000);
            cluster
                .run_supervised(job, Supervision::default())
                .expect("supervised run");
        }
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("poller")
    });
    assert!(scrapes >= 1, "endpoint answered while jobs ran");

    // The final scrape carries the engine's labeled series: counters,
    // gauges, and at least one histogram.
    let (status, body) = http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    let samples = parse_prometheus(&body).expect("valid Prometheus text");
    let series = |name: &str| {
        samples
            .iter()
            .filter(|s| s.name == name && s.label("engine") == Some("hamr"))
            .map(|s| s.value)
            .sum::<f64>()
    };
    assert_eq!(series("hamr_job_runs_total"), 2.0, "{body}");
    assert!(series("hamr_shuffled_bytes_total") > 0.0);
    assert!(series("hamr_net_sent_bytes_total") > 0.0);
    assert!(
        series("hamr_flowlet_task_latency_us_count") > 0.0,
        "histogram series present"
    );
    assert!(
        samples.iter().any(|s| s.name == "hamr_workers"),
        "node gauges live"
    );

    // One epoch snapshot per job; deltas attribute work per job.
    let deltas = cluster.registry().epoch_deltas();
    assert_eq!(deltas.len(), 2);
    assert!(deltas[1].label.starts_with("wc-live-1"));
    assert!(deltas[1].counter_total("shuffled_bytes_total") > 0);

    // /healthz reflects the completed runs; /doctor stays servable.
    let (status, body) = http_get(addr, "/healthz", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    assert!(body.contains("\"jobs_completed\":2"), "{body}");
    let (status, body) = http_get(addr, "/doctor", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    assert!(body.contains("wc-live-1"), "{body}");
    cluster.stop_introspection();
    assert_eq!(cluster.introspection_addr(), None);
}

#[test]
fn node_gauges_are_live_on_a_plain_run() {
    // No supervisor, no profiler: the gauges still exist and the
    // default-style queue-depth alert has a series to watch.
    let cluster = Cluster::new(ClusterConfig::local(2, 2));
    cluster.alert_rules(vec![AlertRule::gauge_high_water(
        "queue-depth-any",
        "queue_depth",
        0,
        1,
    )]);
    let addr = cluster.serve_introspection(0).expect("bind ephemeral");
    cluster
        .run(wordcount_job("wc-plain", 2_000))
        .expect("plain run");

    let (status, body) = http_get(addr, "/metrics", Duration::from_secs(2)).expect("GET");
    assert_eq!(status, 200);
    let samples = parse_prometheus(&body).expect("valid Prometheus text");
    let hamr = |name: &str| {
        samples
            .iter()
            .filter(|s| s.name == name && s.label("engine") == Some("hamr"))
            .collect::<Vec<_>>()
    };
    let workers = hamr("hamr_workers");
    assert_eq!(workers.len(), 2, "one workers series per node: {body}");
    assert!(workers.iter().all(|s| s.value == 2.0), "{body}");
    assert!(!hamr("hamr_queue_depth").is_empty(), "{body}");
    assert!(!hamr("hamr_deferred_bins").is_empty(), "{body}");

    let states = cluster.alert_states();
    assert!(
        states
            .iter()
            .any(|s| s.rule == "queue-depth-any" && s.firing),
        "{states:?}"
    );
    cluster.stop_introspection();
}

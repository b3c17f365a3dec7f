//! `hamr` — the operator CLI: a live console, journal post-mortems,
//! and traced runs.
//!
//! ```text
//! hamr top --addr 127.0.0.1:9099 [--engine hamr] [--interval-ms N] [--ticks N]
//! hamr top --demo [--ticks N]
//! hamr timeline <journal-dir>
//! hamr timeline --diff <journal-dir-a> <journal-dir-b>
//! hamr doctor <journal-dir> [job]
//! hamr explain <journal-dir> <job> <key>|--any|--list
//! hamr trace [--causal]
//! ```
//!
//! `top` polls a cluster's introspection endpoint (`HAMR_HTTP`) and
//! renders a per-node table each tick — occupancy, queue depth,
//! deferred bins, window occupancy, stall share, key figures, net rate
//! — under a header with the resident cache, task-latency quantiles
//! and firing alerts; `--demo` self-hosts a skewed HistogramRatings
//! loop. Exit 0 ok, 1 scrape failure, 2 bad arguments.
//!
//! `timeline`, `doctor` and `explain` read a `HAMR_JOURNAL` directory
//! (or a parent of per-cluster journals) through one `Timeline` fold:
//! per-job spans with their deltas, incidents, stuck edges and alerts
//! (`--diff` pairs two journals); the ranked diagnosis of a job's
//! flight record, by default the newest job that failed or raised an
//! incident (exit 0 clean, 1 trip or error, 2 unreadable journal or no
//! such job); and a sampled key's path through the dataflow.
//!
//! `trace` runs WordCount (balanced) and HistogramRatings (five hot
//! keys, a one-bin window) on both engines under an ambient profiler,
//! prints per-flowlet summaries, worker occupancy and the skewed run's
//! flow-control stall count, and writes `trace_hamr.json` /
//! `trace_mapred.json` to the current directory; `--causal` adds each
//! run's attribution, stall edges and critical path (`causal_*.json`).

use hamr_core::RuntimeConfig;
use hamr_trace::json::{self, Json};
use hamr_trace::{
    analyze, chrome_trace_json, http_get, parse_prometheus, render_attribution,
    render_critical_path, render_occupancy, render_stall_edges, render_summary, summary_rows,
    worker_occupancy, EventKind, PromSample, RingSink, Telemetry, Timeline, TraceEvent, Tracer,
};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One node's slice of a `/metrics` scrape.
#[derive(Debug, Clone, Copy, Default)]
struct NodeStat {
    workers: f64,
    busy: f64,
    /// Aggregate inbound queue depth across the node's flowlets.
    queue: f64,
    deferred: f64,
    window: f64,
    /// Cumulative flow-control stall time (gauge, µs).
    stall_us: f64,
    /// Cumulative bytes sent (counter).
    net_tx_bytes: f64,
    /// Estimated distinct keys routed to this node over shuffle edges
    /// (data-plane sketches, latest job; summed across edges).
    distinct: f64,
    /// Hottest key's share of this node's shuffle traffic, in permille
    /// (max across edges).
    hot_permille: f64,
}

/// Cluster-wide header figures. The resident-cache series carry no
/// node label — custody of a pinned frame is partition-stable, not
/// per-scrape — so they aggregate here rather than in the node table.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    job_runs: f64,
    trace_drops: f64,
    /// Cumulative resident-cache hits (`hamr_cache_hits_total`).
    cache_hits: f64,
    /// Bytes currently pinned (`hamr_cache_resident_bytes`).
    cache_resident_bytes: f64,
}

fn collect(samples: &[PromSample], engine: &str) -> (BTreeMap<u32, NodeStat>, Totals) {
    let mut nodes: BTreeMap<u32, NodeStat> = BTreeMap::new();
    let mut totals = Totals::default();
    for s in samples {
        if s.label("engine").is_some_and(|e| e != engine) {
            continue;
        }
        match s.name.as_str() {
            "hamr_job_runs_total" => totals.job_runs += s.value,
            "hamr_trace_dropped_events_total" => totals.trace_drops += s.value,
            "hamr_cache_hits_total" => totals.cache_hits += s.value,
            "hamr_cache_resident_bytes" => totals.cache_resident_bytes += s.value,
            _ => {}
        }
        let Some(node) = s.label("node").and_then(|n| n.parse::<u32>().ok()) else {
            continue;
        };
        let stat = nodes.entry(node).or_default();
        match s.name.as_str() {
            "hamr_workers" => stat.workers = s.value,
            "hamr_workers_busy" => stat.busy = s.value,
            "hamr_queue_depth" => stat.queue += s.value,
            "hamr_deferred_bins" => stat.deferred = s.value,
            "hamr_window_inflight" => stat.window = s.value,
            "hamr_stall_us_total" => stat.stall_us += s.value,
            "hamr_net_sent_bytes_total" => stat.net_tx_bytes = s.value,
            "hamr_stats_node_distinct_keys" => stat.distinct += s.value,
            "hamr_stats_node_hot_key_permille" => {
                stat.hot_permille = stat.hot_permille.max(s.value)
            }
            _ => {}
        }
    }
    (nodes, totals)
}

/// Merge every `hamr_flowlet_task_latency_us_bucket` series in a
/// scrape into one cluster-wide log2 bucket map: bucket upper bound
/// in µs → count landing in that bucket (`u64::MAX` is `+Inf`).
/// Cumulatives are un-stacked per series (full label set minus `le`)
/// before merging, so flowlets never contaminate each other.
fn latency_buckets(samples: &[PromSample], engine: &str) -> BTreeMap<u64, u64> {
    let mut series: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for s in samples {
        if s.name != "hamr_flowlet_task_latency_us_bucket"
            || s.label("engine").is_some_and(|e| e != engine)
        {
            continue;
        }
        let Some(le) = s.label("le") else { continue };
        let le = if le == "+Inf" {
            u64::MAX
        } else {
            match le.parse() {
                Ok(v) => v,
                Err(_) => continue,
            }
        };
        let key: String = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v};"))
            .collect();
        series.entry(key).or_default().push((le, s.value as u64));
    }
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, mut cum) in series {
        cum.sort_by_key(|&(le, _)| le);
        let mut prev = 0u64;
        for (le, c) in cum {
            let n = c.saturating_sub(prev);
            prev = prev.max(c);
            if n > 0 {
                *merged.entry(le).or_default() += n;
            }
        }
    }
    merged
}

/// Smallest bucket upper bound covering quantile `q` (0..1].
fn bucket_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> Option<u64> {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (&le, &n) in buckets {
        seen += n;
        if seen >= rank {
            return Some(le);
        }
    }
    None
}

fn fmt_us(us: u64) -> String {
    if us == u64::MAX {
        "inf".into()
    } else {
        us.to_string()
    }
}

/// Boil a `/alerts` JSON body down to one console line.
fn alerts_line(body: &str) -> String {
    let Ok(doc) = json::parse(body) else {
        return "alerts: (unparseable response)".into();
    };
    let firing = doc.get("firing").and_then(Json::as_u64).unwrap_or(0);
    if firing == 0 {
        return "alerts: none firing".into();
    }
    let names: Vec<&str> = doc
        .get("rules")
        .and_then(Json::as_arr)
        .map(|rules| {
            rules
                .iter()
                .filter(|r| matches!(r.get("firing"), Some(Json::Bool(true))))
                .filter_map(|r| r.get("rule").and_then(Json::as_str))
                .collect()
        })
        .unwrap_or_default();
    format!("alerts: {firing} FIRING [{}]", names.join(", "))
}

fn fmt_rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e6 {
        format!("{:.1}MB/s", bytes_per_sec / 1e6)
    } else if bytes_per_sec >= 1e3 {
        format!("{:.1}KB/s", bytes_per_sec / 1e3)
    } else {
        format!("{bytes_per_sec:.0}B/s")
    }
}

/// Render one tick's table. `prev` (last tick's stats + elapsed time
/// since) turns the cumulative stall/net series into shares and rates.
fn render_tick(
    tick: u64,
    healthz: &str,
    nodes: &BTreeMap<u32, NodeStat>,
    totals: &Totals,
    latency: &BTreeMap<u64, u64>,
    alerts: &str,
    prev: Option<(&BTreeMap<u32, NodeStat>, Duration)>,
) -> String {
    let mut out = format!(
        "tick {tick}  health {healthz}  jobs {:.0}  trace-drops {:.0}  \
         cache(hit/res MB) {:.0}/{:.1}\n",
        totals.job_runs,
        totals.trace_drops,
        totals.cache_hits,
        totals.cache_resident_bytes / 1e6,
    );
    match (
        bucket_quantile(latency, 0.50),
        bucket_quantile(latency, 0.95),
        bucket_quantile(latency, 0.99),
    ) {
        (Some(p50), Some(p95), Some(p99)) => out.push_str(&format!(
            "task-lat us p50/p95/p99 {}/{}/{}  {alerts}\n",
            fmt_us(p50),
            fmt_us(p95),
            fmt_us(p99),
        )),
        _ => out.push_str(&format!(
            "task-lat us p50/p95/p99 -/-/- (no completed job yet)  {alerts}\n"
        )),
    }
    out.push_str(
        "node  workers  busy   occ%  queue  defer  window  stall%  keys(distinct/hot%)  net-tx\n",
    );
    for (node, s) in nodes {
        let occ = if s.workers > 0.0 {
            100.0 * s.busy / s.workers
        } else {
            0.0
        };
        let (stall_pct, rate) = match prev {
            Some((p, dt)) if dt.as_secs_f64() > 0.0 => {
                let old = p.get(node).copied().unwrap_or_default();
                let lane_us = dt.as_micros() as f64 * s.workers.max(1.0);
                // Stall time is attributed when a producer resumes, so
                // a burst of long stalls can exceed the poll window;
                // clamp to keep the column a share.
                (
                    (100.0 * (s.stall_us - old.stall_us).max(0.0) / lane_us).min(100.0),
                    (s.net_tx_bytes - old.net_tx_bytes).max(0.0) / dt.as_secs_f64(),
                )
            }
            _ => (0.0, 0.0),
        };
        let keys = if s.distinct > 0.0 {
            format!("{:.0}/{:.1}%", s.distinct, s.hot_permille / 10.0)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{node:<4}  {:<7.0}  {:<4.0}  {occ:>5.1}  {:<5.0}  {:<5.0}  {:<6.0}  {stall_pct:>6.1}  {keys:>19}  {}\n",
            s.workers,
            s.busy,
            s.queue,
            s.deferred,
            s.window,
            fmt_rate(rate),
        ));
    }
    if nodes.is_empty() {
        out.push_str("(no per-node series yet — waiting for a run to publish)\n");
    }
    out
}

fn top_loop(addr: SocketAddr, engine: &str, interval: Duration, ticks: u64) -> Result<(), String> {
    let timeout = Duration::from_secs(2);
    let mut prev: Option<(BTreeMap<u32, NodeStat>, Instant)> = None;
    let mut tick = 0u64;
    loop {
        let (status, body) =
            http_get(addr, "/metrics", timeout).map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics: HTTP {status}"));
        }
        let samples =
            parse_prometheus(&body).map_err(|e| format!("invalid Prometheus text: {e}"))?;
        let healthz = match http_get(addr, "/healthz", timeout) {
            Ok((200, _)) => "ok".to_string(),
            Ok((code, _)) => format!("INCIDENT ({code})"),
            Err(e) => format!("unreachable ({e})"),
        };
        let alerts = match http_get(addr, "/alerts", timeout) {
            Ok((200, body)) => alerts_line(&body),
            Ok((code, _)) => format!("alerts: HTTP {code}"),
            Err(e) => format!("alerts: unreachable ({e})"),
        };
        let (nodes, totals) = collect(&samples, engine);
        let latency = latency_buckets(&samples, engine);
        let prev_view = prev.as_ref().map(|(stats, at)| (stats, at.elapsed()));
        println!(
            "{}",
            render_tick(tick, &healthz, &nodes, &totals, &latency, &alerts, prev_view)
        );
        prev = Some((nodes, Instant::now()));
        tick += 1;
        if ticks > 0 && tick >= ticks {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Self-hosted demo: a skewed HistogramRatings workload looping on a
/// 4-node cluster, topped over its own endpoint.
fn run_demo(interval: Duration, ticks: u64) -> Result<(), String> {
    let params = SimParams::test(4, 2).with_scale(1.0);
    let env = Env::new(params);
    let bench = HistogramRatings {
        movies: 16,
        users: 50_000,
        max_ratings_per_movie: 100_000,
    };
    bench.seed(&env)?;
    let addr = env
        .hamr
        .serve_introspection(0)
        .map_err(|e| format!("bind endpoint: {e}"))?;
    eprintln!("hamr top demo: serving on http://{addr}/metrics");
    let stop = AtomicBool::new(false);
    let runner = {
        let (stop, env, bench) = (&stop, &env, &bench);
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Err(e) = bench.run_hamr(env) {
                        eprintln!("hamr top demo: run failed: {e}");
                        return;
                    }
                }
            });
            let result = top_loop(addr, "hamr", interval, ticks.max(1));
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
            result
        })
    };
    env.hamr.stop_introspection();
    runner
}

fn usage() -> ! {
    eprintln!(
        "usage: hamr top --addr HOST:PORT [--engine hamr|mapred] \
         [--interval-ms N] [--ticks N]\n       hamr top --demo [--ticks N]\n       \
         hamr timeline <journal-dir>\n       \
         hamr timeline --diff <journal-dir-a> <journal-dir-b>\n       \
         hamr doctor <journal-dir> [job]\n       \
         hamr explain <journal-dir> <job> <key>|--any|--list\n       \
         hamr trace [--causal]"
    );
    std::process::exit(2);
}

/// `hamr explain <journal-dir> <job> <key>|--any|--list`: reconstruct
/// a sampled record's path — flowlets, edges, final reducer — from the
/// journal's stats snapshots.
/// Requires the run to have had `HAMR_STATS=full` (lineage sampling).
/// Exit 0 on a rendered path, 1 when the key/journal yields nothing,
/// 2 on bad arguments.
fn explain_main(args: &[String]) -> ! {
    let (dir, job, query) = match args {
        [dir, job, query] => (Path::new(dir), job.as_str(), query.as_str()),
        _ => {
            eprintln!("usage: hamr explain <journal-dir> <job> <key>|--any|--list");
            std::process::exit(2);
        }
    };
    let timeline = Timeline::load(dir).unwrap_or_else(|e| {
        eprintln!("hamr explain: {e}");
        std::process::exit(1);
    });
    // The newest snapshot for the job wins: iterative workloads persist
    // one per job run and the freshest has the complete picture.
    let snap = timeline
        .jobs
        .iter()
        .rev()
        .filter(|s| s.job == job)
        .find_map(|s| s.stats.as_ref());
    let Some(snap) = snap else {
        eprintln!(
            "hamr explain: no stats snapshot for job '{job}' in {} \
             (was the run made with HAMR_STATS set?)",
            dir.display()
        );
        std::process::exit(1);
    };
    if snap.samples.is_empty() {
        eprintln!(
            "hamr explain: job '{job}' has per-edge sketches but no lineage samples \
             (rerun with HAMR_STATS=full to sample records)"
        );
        std::process::exit(1);
    }
    let code = match query {
        "--list" => {
            println!("sampled keys in job '{job}':");
            for s in &snap.samples {
                println!(
                    "  {} (hash {:#018x}, {} hops)",
                    hamr_trace::stats::format_key(&s.key),
                    s.hash,
                    s.hops.len()
                );
            }
            0
        }
        "--any" => {
            // Deepest path first: the most informative demo of the hop
            // chain, and deterministic for smoke tests.
            let sample = snap
                .samples
                .iter()
                .max_by_key(|s| (s.hops.len(), s.hash))
                .expect("samples non-empty");
            print!("{}", hamr_trace::stats::render_explain(job, sample));
            0
        }
        key => {
            let needles = hamr_trace::stats::key_query_encodings(key);
            let hash = key
                .strip_prefix("hash:")
                .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok());
            match snap.find_sample(&needles, hash) {
                Some(sample) => {
                    print!("{}", hamr_trace::stats::render_explain(job, sample));
                    0
                }
                None => {
                    eprintln!(
                        "hamr explain: key '{key}' was not sampled in job '{job}' \
                         ({} sampled keys; try --list, or lower the sampling \
                         stride with HAMR_STATS=full:1)",
                        snap.samples.len()
                    );
                    1
                }
            }
        }
    };
    std::process::exit(code);
}

/// `hamr timeline`: offline post-mortem reconstruction from a
/// durable journal directory. Exit 0 on a rendered timeline, 1 on an
/// unreadable/absent journal, 2 on bad arguments.
fn timeline_main(args: &[String]) -> ! {
    let code = match args {
        [flag, a, b] if flag == "--diff" => {
            match (Timeline::load(Path::new(a)), Timeline::load(Path::new(b))) {
                (Ok(ta), Ok(tb)) => {
                    println!("{}", Timeline::render_diff(&ta, &tb));
                    0
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("hamr timeline: {e}");
                    1
                }
            }
        }
        [dir] => match Timeline::load(Path::new(dir)) {
            Ok(t) => {
                println!("{}", t.render());
                0
            }
            Err(e) => {
                eprintln!("hamr timeline: {e}");
                1
            }
        },
        _ => {
            eprintln!(
                "usage: hamr timeline <journal-dir>\n       \
                 hamr timeline --diff <journal-dir-a> <journal-dir-b>"
            );
            2
        }
    };
    std::process::exit(code);
}

/// `hamr doctor <journal-dir> [job]`: the flight record of `job`, or
/// of the newest failed or tripped job, rebuilt from the journal.
/// Exit 0 on a clean record (or when no job failed or tripped), 1 when
/// the record shows a watchdog trip or job error, 2 when the journal
/// is unreadable or holds no such job. A bad input must never look
/// like a clean bill of health.
fn doctor_main(args: &[String]) -> ! {
    let (dir, job) = match args {
        [dir] => (dir, None),
        [dir, job] => (dir, Some(job.as_str())),
        _ => {
            eprintln!("usage: hamr doctor <journal-dir> [job]");
            std::process::exit(2);
        }
    };
    let timeline = Timeline::load(Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("hamr doctor: {e}");
        std::process::exit(2);
    });
    let Some(span) = timeline.doctor_span(job) else {
        if let Some(job) = job {
            eprintln!("hamr doctor: no job {job:?} in {dir}");
            std::process::exit(2);
        }
        println!(
            "hamr doctor: none of the {} job(s) in {dir} failed or tripped",
            timeline.jobs.len()
        );
        std::process::exit(0);
    };
    let record = span.flight_record();
    print!("{}", record.render());
    std::process::exit(i32::from(record.trip.is_some() || record.error.is_some()));
}

/// Run the causal profiler over one run's events, print the report and
/// write it to `causal_<label>.json`.
fn causal_report(label: &str, events: &[TraceEvent], dropped: u64) {
    let report = analyze(events, dropped);
    println!("== causal attribution: {label} ==");
    print!("{}", render_attribution(&report));
    println!("top stall edges:");
    print!("{}", render_stall_edges(&report));
    print!("{}", render_critical_path(&report));
    println!(
        "spans: {}/{} complete\n",
        report.spans_complete, report.spans_seen
    );
    let path = format!("causal_{label}.json");
    std::fs::write(&path, report.to_json()).expect("write causal report");
    println!("wrote {path}\n");
}

/// `hamr trace [--causal]`: traced runs of the balanced WordCount and
/// the skewed, window-1 HistogramRatings on both engines, through
/// their `Benchmark` impls under an ambient profiler.
fn trace_main(args: &[String]) -> ! {
    let causal = match args {
        [] => false,
        [flag] if flag == "--causal" => true,
        _ => {
            eprintln!("usage: hamr trace [--causal]");
            std::process::exit(2);
        }
    };
    // A five-key shuffle into a one-bin flow-control window fills it
    // instantly, so the skewed HAMR run records stall/resume pairs; the
    // balanced run on a default runtime shows none, and MapReduce,
    // with no window, shows the skew as long reduce tasks instead.
    let balanced = Env::test(4, 2);
    let skewed = Env::with_hamr_runtime(
        SimParams::test(4, 2),
        RuntimeConfig {
            bin_capacity: 16,
            out_window_bins: 1,
            ..Default::default()
        },
    );
    let runs: [(&str, &dyn Benchmark, &Env); 2] = [
        ("wordcount", &WordCount::default(), &balanced),
        ("histratings_skewed", &HistogramRatings::default(), &skewed),
    ];
    let fail = |what: &str, e: String| -> ! {
        eprintln!("hamr trace: {what}: {e}");
        std::process::exit(1);
    };
    for (label, bench, env) in runs {
        bench.seed(env).unwrap_or_else(|e| fail(label, e));
    }
    for engine in ["hamr", "mapred"] {
        // One tracer per engine, so its Chrome export shares one clock;
        // the ring is drained per run so the causal profiler sees each
        // job in isolation.
        let sink = Arc::new(RingSink::new(64, 1 << 16));
        let tracer = Tracer::new(sink.clone());
        let (mut events, mut skewed_stalls, mut dropped_before) = (Vec::new(), 0, 0);
        for (label, bench, env) in runs {
            env.hamr
                .attach_profiler(tracer.clone(), Telemetry::disabled());
            env.mr.attach_profiler(tracer.clone());
            let result = match engine {
                "hamr" => bench.run_hamr(env),
                _ => bench.run_mapred(env),
            };
            env.hamr.detach_profiler();
            env.mr.detach_profiler();
            result.unwrap_or_else(|e| fail(label, e));
            let run_events = sink.drain();
            let dropped = sink.dropped() - dropped_before;
            dropped_before = sink.dropped();
            println!("== {engine} {label} ==");
            println!("{}", render_summary(&summary_rows(&run_events)));
            if dropped > 0 {
                eprintln!(
                    "WARNING: {engine} {label}: {dropped} events dropped by the trace ring \
                     — raise RingSink capacity for complete lineage"
                );
            }
            if causal {
                causal_report(&format!("{engine}_{label}"), &run_events, dropped);
            }
            if std::ptr::eq(env, &skewed) {
                skewed_stalls = run_events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::FlowControlStall { .. }))
                    .count();
            }
            events.extend(run_events);
        }
        if engine == "hamr" {
            // Per-worker scheduler view across both runs: task counts,
            // busy time, steals and park time per lane.
            println!("== hamr worker occupancy (both runs) ==");
            println!("{}", render_occupancy(&worker_occupancy(&events)));
            let steals = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::TaskStolen { .. }))
                .count();
            println!(
                "hamr: {} events, {skewed_stalls} flow-control stalls (skewed run), {steals} steals",
                events.len()
            );
        } else {
            println!("mapred: {} events", events.len());
        }
        let path = format!("trace_{engine}.json");
        std::fs::write(&path, chrome_trace_json(&events)).expect("write trace");
        println!("wrote {path}\n");
    }
    println!("Open the JSON files at https://ui.perfetto.dev to browse the timelines.");
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("timeline") => timeline_main(&argv[1..]),
        Some("explain") => explain_main(&argv[1..]),
        Some("doctor") => doctor_main(&argv[1..]),
        Some("trace") => trace_main(&argv[1..]),
        Some("top") => {}
        _ => usage(),
    }
    let mut addr: Option<SocketAddr> = None;
    let mut engine = "hamr".to_string();
    let mut interval = Duration::from_millis(1000);
    let mut ticks = 0u64;
    let mut demo = false;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("hamr top: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => match value("--addr").parse() {
                Ok(a) => addr = Some(a),
                Err(e) => {
                    eprintln!("hamr top: --addr: {e}");
                    std::process::exit(2);
                }
            },
            "--engine" => engine = value("--engine").to_string(),
            "--interval-ms" => match value("--interval-ms").parse::<u64>() {
                Ok(ms) => interval = Duration::from_millis(ms.max(10)),
                Err(e) => {
                    eprintln!("hamr top: --interval-ms: {e}");
                    std::process::exit(2);
                }
            },
            "--ticks" => match value("--ticks").parse() {
                Ok(n) => ticks = n,
                Err(e) => {
                    eprintln!("hamr top: --ticks: {e}");
                    std::process::exit(2);
                }
            },
            "--demo" => demo = true,
            _ => usage(),
        }
    }
    let result = if demo {
        run_demo(interval, if ticks == 0 { 10 } else { ticks })
    } else {
        let Some(addr) = addr else { usage() };
        top_loop(addr, &engine, interval, ticks)
    };
    if let Err(e) = result {
        eprintln!("hamr top: {e}");
        std::process::exit(1);
    }
}

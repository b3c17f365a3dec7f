//! `hamr` — operator console for a live cluster.
//!
//! `hamr top` polls a cluster's embedded introspection endpoint (see
//! `HAMR_HTTP` / `Cluster::serve_introspection`) and renders a
//! per-node table each tick: worker occupancy, aggregate flowlet
//! queue depth, deferred bins, flow-control window occupancy, stall
//! share, data-plane key figures and network transmit rate — the live
//! counterpart of `tracedump`'s post-mortem occupancy table.
//! The header line carries the cluster-wide partition-resident frame
//! cache as `cache(hit/res MB)`: cumulative resident hits and the
//! megabytes currently pinned.
//!
//! ```text
//! hamr top --addr 127.0.0.1:9099 [--engine hamr] [--interval-ms N] [--ticks N]
//! hamr top --demo [--ticks N]
//! hamr timeline <journal-dir>
//! hamr timeline --diff <journal-dir-a> <journal-dir-b>
//! hamr explain <journal-dir> <job> <key>|--any|--list
//! ```
//!
//! `hamr explain` reads the data-plane stats snapshots the journal
//! persists per job (`HAMR_STATS=full` runs sample record lineage)
//! and reconstructs a sampled key's path through the dataflow:
//! emitting flowlets and edges, and the final reducer.
//!
//! `hamr top` also renders a cluster-wide task-latency quantile line
//! (p50/p95/p99 in µs, aggregated from the published log2 latency
//! histograms) and an alert line polled from `/alerts`.
//!
//! `hamr timeline` is the offline post-mortem: point it at a
//! `HAMR_JOURNAL` directory (or a parent holding several per-cluster
//! journals) and it reconstructs the run — per-job spans with
//! shuffled-bytes / cache-hit / stall / p99 deltas, watchdog
//! incidents, stuck edges from the audit ledger, alert firings, and
//! the final state of a run killed mid-flight. `--diff` compares two
//! journals job by job.
//!
//! Every column comes from the cluster's metrics registry, whose
//! gauges (occupancy, queue, deferred bins, window) and counters (net
//! bytes, job totals) are live on every run. `--demo` self-hosts the
//! endpoint: it runs a skewed HistogramRatings workload in-process on
//! 4 nodes and tops it, so the walkthrough in EXPERIMENTS.md is a
//! single command.
//!
//! Exit codes: 0 ok, 1 endpoint/scrape failure, 2 bad arguments.

use hamr_trace::json::{self, Json};
use hamr_trace::{http_get, parse_prometheus, PromSample, Timeline};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
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
         hamr explain <journal-dir> <job> <key>|--any|--list"
    );
    std::process::exit(2);
}

/// Collect every persisted stats snapshot for `job` (oldest first)
/// from a journal directory, following the same single-dir /
/// one-subdir-per-cluster layout as `hamr timeline`.
fn load_stats_snapshots(dir: &Path, job: &str) -> Result<Vec<hamr_trace::StatsSnapshot>, String> {
    let mut records = Vec::new();
    let direct = hamr_trace::read_journal(dir)?;
    if direct.records.is_empty() && direct.truncated_frames == 0 {
        let mut subs: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .map(|e| e.path())
            .collect();
        subs.sort();
        for sub in subs {
            if let Ok(read) = hamr_trace::read_journal(&sub) {
                records.extend(read.records);
            }
        }
    } else {
        records = direct.records;
    }
    Ok(records
        .into_iter()
        .filter_map(|r| match r {
            hamr_trace::JournalRecord::Stats(s) if s.job == job => Some(s),
            _ => None,
        })
        .collect())
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
    let snaps = match load_stats_snapshots(dir, job) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hamr explain: {e}");
            std::process::exit(1);
        }
    };
    // The last snapshot for the job wins: iterative workloads persist
    // one per job run and the freshest has the complete picture.
    let Some(snap) = snaps.last() else {
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("timeline") {
        timeline_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("explain") {
        explain_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) != Some("top") {
        usage();
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

//! Causal-profiler integration tests: attribution must partition wall
//! time exactly, bin lineage must survive the full produce→consume
//! round trip across nodes, and the top-stall-edges ranking must name
//! the edge that actually backpressured a skewed run.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, RuntimeConfig, SchedMode,
};
use hamr_trace::{analyze, CausalReport, EventKind, RingSink, TraceEvent, Tracer};
use std::sync::Arc;

fn config_with(sched: SchedMode) -> ClusterConfig {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.sched = sched;
    config
}

fn run_wordcount(cluster: &Cluster) -> (Vec<TraceEvent>, u64) {
    let sink = Arc::new(RingSink::new(16, 1 << 16));
    let mut job = JobBuilder::new("wc-causal");
    let lines: Vec<String> = (0..300)
        .map(|i| format!("alpha beta gamma w{} w{}", i % 13, i % 29))
        .collect();
    let loader = job.add_loader("lines", typed::vec_loader(lines));
    let map = job.add_map(
        "split",
        typed::map_fn(|_k: u64, line: String, out: &mut Emitter| {
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, map, Exchange::Local);
    job.connect(map, sum, Exchange::Hash);
    job.capture_output(sum);
    cluster
        .run_traced(job.build().unwrap(), Tracer::new(sink.clone()))
        .unwrap();
    let dropped = sink.dropped();
    (sink.drain(), dropped)
}

/// One hot key over a one-bin window: the shape of the paper's skewed
/// HistogramRatings run, shrunk to test size. Every map bin funnels to
/// one reducer node, so the (map→sum, hot-node) edge must stall.
fn run_skewed(cluster: &Cluster) -> (Vec<TraceEvent>, u64) {
    let sink = Arc::new(RingSink::new(16, 1 << 16));
    let mut job = JobBuilder::new("skew-causal");
    let loader = job.add_loader(
        "ones",
        typed::pairs_loader((0..4000u64).map(|i| (i, 1u64)).collect()),
    );
    let tag = job.add_map(
        "hotkey",
        typed::map_fn(|_k: u64, v: u64, out: &mut Emitter| {
            out.emit_t(0, &"hot".to_string(), &v);
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, tag, Exchange::Local);
    job.connect(tag, sum, Exchange::Hash);
    job.capture_output(sum);
    cluster
        .run_traced(job.build().unwrap(), Tracer::new(sink.clone()))
        .unwrap();
    let dropped = sink.dropped();
    (sink.drain(), dropped)
}

/// Attribution buckets must sum to `lanes × wall` within 1% (the spec's
/// conservation bound; the sweep is exact by construction, so this
/// guards against double-counted or dropped segments sneaking in).
fn assert_conserved(report: &CausalReport) {
    let expected = report.lanes as u64 * report.wall_us;
    let got = report.total.total();
    let tolerance = expected / 100 + 1;
    assert!(
        got.abs_diff(expected) <= tolerance,
        "attribution not conserved: buckets sum to {got}us, lanes*wall = {expected}us"
    );
    let share_sum: f64 = report.shares().iter().sum();
    assert!(
        (share_sum - 1.0).abs() < 0.01,
        "shares must sum to 1, got {share_sum}"
    );
    for node in &report.per_node {
        let node_expected = node.lanes as u64 * report.wall_us;
        assert!(
            node.buckets.total().abs_diff(node_expected) <= node_expected / 100 + 1,
            "node {} buckets not conserved",
            node.node
        );
    }
}

fn all_modes() -> Vec<SchedMode> {
    vec![
        SchedMode::WorkStealing,
        SchedMode::Centralized,
        SchedMode::Deterministic { seed: 7 },
    ]
}

#[test]
fn wordcount_attribution_conserves_wall_time_under_all_sched_modes() {
    for sched in all_modes() {
        let cluster = Cluster::new(config_with(sched));
        let (events, dropped) = run_wordcount(&cluster);
        assert_eq!(dropped, 0, "sized ring must not drop ({sched:?})");
        let report = analyze(&events, dropped);
        assert!(report.wall_us > 0);
        assert!(report.total.compute_us > 0, "work ran ({sched:?})");
        assert_conserved(&report);
    }
}

#[test]
fn skewed_attribution_conserves_and_names_the_hot_edge() {
    for sched in all_modes() {
        let mut config = config_with(sched);
        config.runtime = RuntimeConfig {
            bin_capacity: 8,
            out_window_bins: 1,
            sched: config.runtime.sched,
            ..Default::default()
        };
        let cluster = Cluster::new(config);
        let (events, dropped) = run_skewed(&cluster);
        assert_eq!(dropped, 0, "sized ring must not drop ({sched:?})");
        let report = analyze(&events, dropped);
        assert_conserved(&report);
        assert!(
            report.total.stall_us > 0,
            "one-bin window on a hot key must register stall time ({sched:?})"
        );
        // The ranking must name the map→sum shuffle edge (edge 1): its
        // stalls all funnel to the single node owning the hot key. The
        // loader's local edge may also stall under the global one-bin
        // window, but the shuffle edge must be present and hot.
        assert!(
            !report.stall_edges.is_empty(),
            "skewed run must record stall edges ({sched:?})"
        );
        let shuffle: Vec<_> = report
            .stall_edges
            .iter()
            .filter(|s| s.flowlet == 1 && s.edge == 1)
            .collect();
        assert!(
            !shuffle.is_empty(),
            "the hot shuffle edge must appear in the ranking ({sched:?})"
        );
        assert_eq!(
            shuffle.len(),
            1,
            "one hot key serializes on exactly one destination ({sched:?})"
        );
        assert!(shuffle[0].stalled_us > 0 && shuffle[0].stalls > 0);
    }
}

#[test]
fn bin_spans_round_trip_from_emit_to_consuming_task() {
    let cluster = Cluster::new(config_with(SchedMode::WorkStealing));
    let (events, dropped) = run_wordcount(&cluster);
    assert_eq!(dropped, 0);
    let report = analyze(&events, dropped);
    assert!(report.spans_seen > 0, "bins must mint spans");
    assert_eq!(
        report.spans_complete, report.spans_seen,
        "every emitted bin must be shipped, delivered, and consumed"
    );
    // Cross-check by hand: every BinEmitted span reappears in exactly
    // one BinShipped, one BinIngress, and at least one TaskStart.
    let mut emitted = std::collections::HashSet::new();
    for e in &events {
        if let EventKind::BinEmitted { span, .. } = e.kind {
            assert!(emitted.insert(span), "span {span} minted twice");
        }
    }
    assert!(!emitted.is_empty());
    for e in &events {
        match e.kind {
            EventKind::BinShipped { span, .. } | EventKind::BinIngress { span, .. } => {
                assert!(emitted.contains(&span), "unknown span in transit");
            }
            EventKind::TaskStart { span, .. } if span != 0 => {
                assert!(emitted.contains(&span), "task consumed unknown span");
            }
            _ => {}
        }
    }
    let consumed: std::collections::HashSet<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TaskStart { span, .. } if span != 0 => Some(span),
            _ => None,
        })
        .collect();
    assert_eq!(consumed, emitted, "every bin's span reaches a task fire");
}

#[test]
fn critical_path_is_bounded_by_wall_and_nonempty() {
    let cluster = Cluster::new(config_with(SchedMode::WorkStealing));
    let (events, dropped) = run_wordcount(&cluster);
    let report = analyze(&events, dropped);
    let cp = &report.critical_path;
    assert!(cp.hops > 0, "critical path must visit tasks");
    assert!(cp.total_us > 0);
    assert!(
        cp.total_us <= report.wall_us + 1,
        "critical path {}us cannot exceed wall {}us",
        cp.total_us,
        report.wall_us
    );
    assert_eq!(
        cp.total_us,
        cp.compute_us + cp.net_us + cp.stall_us + cp.queue_us,
        "critical-path segments must partition its length"
    );
}

/// A WordCount-shaped job over a Zipf-ish vocabulary: every line
/// repeats a few hot words, so each map task emits hundreds of copies
/// of them through the combined hash edge.
fn wordcount_job(name: &str, lines: u64) -> hamr_core::JobGraph {
    let mut job = JobBuilder::new(name);
    let lines: Vec<String> = (0..lines)
        .map(|i| {
            format!(
                "the of the w{} and w{} the w{} of w{} the",
                i % 7,
                i % 61,
                (i * i) % 257,
                i % 1009
            )
        })
        .collect();
    let loader = job.add_loader("lines", typed::vec_loader(lines));
    let map = job.add_map(
        "split",
        typed::map_fn(|_k: u64, line: String, out: &mut Emitter| {
            for w in line.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let sum = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, map, Exchange::Local);
    job.connect_combined(map, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    job.build().unwrap()
}

/// The longest single task in an event log: TaskStart/TaskEnd pairs
/// per (node, worker) lane, which never nest.
fn longest_task_us(events: &[TraceEvent]) -> u64 {
    let mut open = std::collections::HashMap::new();
    let mut longest = 0;
    for e in events {
        match e.kind {
            EventKind::TaskStart { .. } => {
                open.insert((e.node, e.worker), e.t_us);
            }
            EventKind::TaskEnd { .. } => {
                if let Some(start) = open.remove(&(e.node, e.worker)) {
                    longest = longest.max(e.t_us - start);
                }
            }
            _ => {}
        }
    }
    longest
}

/// Lower bound on the critical path. On a default-config, single-job,
/// unstalled run the path walks from the last reduce back through the
/// producing map tasks to the loader, so it covers the longest task and
/// most of the wall. A path that stops short — at a bin no task
/// emitted — collapses to a sliver of the wall and fails here.
#[test]
fn critical_path_covers_the_longest_task_and_half_the_wall() {
    let cluster = Cluster::new(ClusterConfig::local(4, 2));
    let sink = Arc::new(RingSink::new(16, 1 << 17));
    cluster
        .run_traced(
            wordcount_job("wc-critical", 8_000),
            Tracer::new(sink.clone()),
        )
        .unwrap();
    let dropped = sink.dropped();
    assert_eq!(dropped, 0, "sized ring must not drop");
    let events = sink.drain();
    let report = analyze(&events, dropped);
    let cp = &report.critical_path;
    let longest = longest_task_us(&events);
    assert!(longest > 0, "run recorded no tasks");
    assert!(
        cp.total_us >= longest,
        "critical path {}us is shorter than the longest task {longest}us ({cp:?})",
        cp.total_us
    );
    assert!(
        cp.total_us * 2 >= report.wall_us,
        "critical path {}us covers less than half the {}us wall ({cp:?})",
        cp.total_us,
        report.wall_us
    );
    assert!(cp.total_us <= report.wall_us + 1);
}

/// Span minting is scoped to the run's own tracer, and each job counts
/// the span-carrying bins it delivered, so this test asserts on its own
/// jobs only: sibling tests minting spans concurrently cannot move
/// these numbers.
#[test]
fn untraced_run_mints_no_spans() {
    let cluster = Cluster::new(config_with(SchedMode::WorkStealing));
    let job = || {
        let mut job = JobBuilder::new("untraced");
        let loader = job.add_loader(
            "nums",
            typed::pairs_loader((0..100u64).map(|i| (i, i)).collect()),
        );
        let sum = job.add_partial_reduce("sum", typed::sum_reducer::<u64>());
        job.connect(loader, sum, Exchange::Hash);
        job.capture_output(sum);
        job.build().unwrap()
    };
    let bins_in = |r: &hamr_core::JobResult| r.metrics.nodes.iter().map(|n| n.bins_in).sum::<u64>();

    let untraced = cluster.run(job()).unwrap();
    assert!(!untraced.output(1).is_empty());
    assert!(bins_in(&untraced) > 0, "the job must move bins");
    assert_eq!(
        untraced.metrics.total_spanned_bins(),
        0,
        "untraced runs must not mint spans"
    );

    // The same job traced: every delivered bin carries a span, minted
    // from this tracer's own counter and nowhere else.
    let tracer = Tracer::new(Arc::new(RingSink::new(4, 1 << 12)));
    let traced = cluster.run_traced(job(), tracer.clone()).unwrap();
    let spanned = traced.metrics.total_spanned_bins();
    assert_eq!(spanned, bins_in(&traced));
    assert_eq!(
        tracer.next_span(),
        spanned + 1,
        "the run's spans come from its tracer alone"
    );
}

//! End-to-end skew-mitigation tests: the in-node combiner must preserve
//! engine output exactly, keep custody balanced, and stay correct on
//! degenerate shapes, while its counters prove it actually engaged.

use hamr_core::{
    typed, Cluster, ClusterConfig, Emitter, Exchange, JobBuilder, JobResult, SchedMode, SkewConfig,
};

/// A cluster with an explicit skew configuration and the deterministic
/// scheduler, so every run of the same job is byte-for-byte repeatable.
fn skew_cluster(nodes: usize, threads: usize, skew: SkewConfig) -> Cluster {
    let mut config = ClusterConfig::local(nodes, threads);
    config.runtime.sched = SchedMode::Deterministic { seed: 7 };
    config.runtime.skew = skew;
    Cluster::new(config)
}

/// Input with one synthetic hot key: key 1 appears `hot` times, keys
/// 2..=cold once each. Values are all 1 so the expected sums are
/// trivially checkable.
fn skewed_pairs(hot: usize, cold: usize) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = (0..hot).map(|_| (1u64, 1u64)).collect();
    v.extend((2..=cold as u64 + 1).map(|k| (k, 1u64)));
    v
}

fn run_sum_job(cluster: &Cluster, pairs: Vec<(u64, u64)>, label: &str) -> JobResult {
    let mut job = JobBuilder::new(format!("skew-sum-{label}"));
    let loader = job.add_loader("pairs", typed::pairs_loader(pairs));
    let map = job.add_map(
        "ident",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: Vec<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.iter().sum::<u64>());
        }),
    );
    job.connect(loader, map, Exchange::Local);
    job.connect_combined(map, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    cluster.run(job.build().unwrap()).unwrap()
}

fn sorted_output(result: &JobResult) -> Vec<(u64, u64)> {
    let mut out = result.typed_output::<u64, u64>(2);
    out.sort();
    out
}

fn expected(hot: usize, cold: usize) -> Vec<(u64, u64)> {
    let mut v = vec![(1u64, hot as u64)];
    v.extend((2..=cold as u64 + 1).map(|k| (k, 1u64)));
    v
}

#[test]
fn combiner_folds_duplicates_and_preserves_output() {
    let (hot, cold) = (1000, 30);
    let combined = run_sum_job(
        &skew_cluster(3, 2, SkewConfig::default()),
        skewed_pairs(hot, cold),
        "combine",
    );
    assert_eq!(sorted_output(&combined), expected(hot, cold));
    assert!(combined.metrics.total_combined() > 0);
    // Combined records are restored producer-side, so records_out of
    // the map stays comparable with the combiner-free engine.
    let map_out = combined.metrics.flowlets.get(&1).unwrap().records_out;
    assert_eq!(map_out, (hot + cold) as u64);
}

#[test]
fn every_mitigation_combination_produces_identical_output() {
    let (hot, cold) = (800, 25);
    let combos = [
        ("off", SkewConfig::off()),
        ("combine", SkewConfig::default()),
    ];
    let want = expected(hot, cold);
    for (name, cfg) in combos {
        let result = run_sum_job(&skew_cluster(4, 2, cfg), skewed_pairs(hot, cold), name);
        assert_eq!(
            sorted_output(&result),
            want,
            "skew config '{name}' changed the engine output"
        );
        assert_eq!(result.metrics.total_combined() > 0, name == "combine");
    }
}

#[test]
fn audit_custody_balances_under_full_mitigation() {
    let (hot, cold) = (1500, 40);
    let cluster = skew_cluster(4, 2, SkewConfig::default());
    let mut job = JobBuilder::new("skew-audit");
    let loader = job.add_loader("pairs", typed::pairs_loader(skewed_pairs(hot, cold)));
    let map = job.add_map(
        "ident",
        typed::map_fn(|k: u64, v: u64, out: &mut Emitter| out.emit_t(0, &k, &v)),
    );
    let sum = job.add_reduce(
        "sum",
        typed::reduce_fn(|k: u64, vs: Vec<u64>, out: &mut Emitter| {
            out.output_t(&k, &vs.iter().sum::<u64>());
        }),
    );
    job.connect(loader, map, Exchange::Local);
    job.connect_combined(map, sum, Exchange::Hash, typed::sum_combiner());
    job.capture_output(sum);
    let (result, report) = cluster.run_audited(job.build().unwrap()).unwrap();
    report
        .check()
        .expect("custody must balance through the combiner");
    // The combiner side-table saw the pre/post-combine pair and never
    // emitted more than it consumed.
    assert!(!report.combines.is_empty());
    for row in &report.combines {
        assert!(row.records_in >= row.records_out);
    }
    let mut out = result.typed_output::<u64, u64>(sum);
    out.sort();
    assert_eq!(out, expected(hot, cold));
}

#[test]
fn single_node_and_single_worker_stay_correct() {
    // Degenerate shapes: every key home on one node, and a lone
    // worker per node.
    for (nodes, threads) in [(1, 2), (2, 1)] {
        let result = run_sum_job(
            &skew_cluster(nodes, threads, SkewConfig::default()),
            skewed_pairs(300, 10),
            "degenerate",
        );
        assert_eq!(sorted_output(&result), expected(300, 10));
        assert!(result.metrics.total_combined() > 0);
    }
}

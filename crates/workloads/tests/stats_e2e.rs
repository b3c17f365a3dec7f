//! Workload-level acceptance for the data-plane statistics layer.
//!
//! The skewed HistogramRatings run is the paper's §5.2 pathology: five
//! rating keys, one of them drawing most of the traffic. The statistics
//! must *name* that hot key — the heavy-hitter sketch on the shuffle
//! edge ranks it first, with its exact count — and with 1-in-1 lineage
//! sampling the `hamr explain` rendering must walk a hot-key record
//! from its emit straight to the reducer at its home node. A healthy
//! run's samples likewise go straight to reduce. The MapReduce baseline
//! folds the same sketches on its reduce side, so both engines agree on
//! the five-key cardinality — with `groups` as the exact anchor.

use hamr_core::{RuntimeConfig, SkewConfig};
use hamr_trace::stats::render_explain;
use hamr_trace::{read_journal, HopKind, JournalRecord, StatsMode, StatsSnapshot};
use hamr_workloads::gen::movies::{movie_lines, parse_movie_line};
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::{Benchmark, Env, SimParams};
use std::path::PathBuf;

fn journal_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hamr_stats_e2e_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Read the last stats snapshot the job journaled.
fn load_snapshot(dir: &PathBuf, job: &str) -> StatsSnapshot {
    let read = read_journal(dir).expect("read journal");
    read.records
        .iter()
        .rev()
        .find_map(|r| match r {
            JournalRecord::Stats(s) if s.job == job => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no stats snapshot for {job} in {dir:?}"))
}

/// The skewed generator's hottest rating value, counted exactly from
/// the same lines the benchmark seeds (generators are seed-fixed).
fn hottest_rating(bench: &HistogramRatings, seed: u64) -> (u64, u64, u64) {
    let lines = movie_lines(
        bench.movies,
        bench.users,
        bench.max_ratings_per_movie,
        seed.wrapping_add(2),
    );
    let mut counts = [0u64; 6];
    for line in &lines {
        if let Some((_, ratings)) = parse_movie_line(line) {
            for (_, r) in ratings {
                counts[r as usize] += 1;
            }
        }
    }
    let hot = (1..6).max_by_key(|&r| counts[r]).unwrap() as u64;
    let total: u64 = counts.iter().sum();
    (hot, counts[hot as usize], total)
}

#[test]
fn skewed_histogram_sketch_names_the_hot_key() {
    let dir = journal_dir("skew");
    // Combining stays off so the per-rating record counts reach the
    // emit-side sketches unfolded.
    let runtime = RuntimeConfig {
        skew: SkewConfig::off(),
        stats: StatsMode::Full { sample_one_in: 1 },
        ..Default::default()
    };
    let params = SimParams::test(3, 2);
    let seed = params.seed;
    let env = Env::with_hamr_runtime(params, runtime);
    env.hamr.enable_journal(&dir).expect("enable journal");
    let bench = HistogramRatings {
        movies: 2,
        users: 400,
        max_ratings_per_movie: 2_000,
    };
    bench.seed(&env).expect("seed");
    let out = bench.run_hamr(&env).expect("hamr run");
    drop(env);

    let snap = load_snapshot(&dir, "histogram-ratings");
    let (hot, hot_count, total) = hottest_rating(&bench, seed);
    assert!(
        hot_count * 4 > total,
        "generator lost its skew: {hot_count}/{total}"
    );
    // Ratings are u64 keys < 128: a single LEB128 varint byte on the
    // wire.
    let hot_key = vec![hot as u8];

    // The heavy-hitter sketch on the busiest shuffle edge must rank
    // the generator's hottest rating first.
    let edge = snap
        .edges
        .iter()
        .filter(|e| e.shuffle && e.records > 0)
        .max_by_key(|e| e.records)
        .expect("no shuffle edge with traffic");
    assert_eq!(edge.distinct, 5, "five rating keys: {edge:?}");
    let top = edge.top.first().expect("empty top-K");
    assert_eq!(
        top.key, hot_key,
        "HH sketch top-1 is not the generator's hot rating {hot}"
    );
    assert_eq!(top.err, 0, "five keys, K=32: no eviction error");
    assert!(
        out.hot_key_share > 0.2,
        "the hottest of five keys must carry more than a fifth: {}",
        out.hot_key_share
    );

    // 1-in-1 sampling: the hot key's lineage must be on file, and every
    // shuffle hop must go straight to the key's one home node, where a
    // reducer ingests it.
    let sample = snap
        .find_sample(&[hot_key], None)
        .expect("hot key was not sampled at 1-in-1");
    let shuffle_hops: Vec<_> = sample.hops.iter().filter(|h| h.edge == edge.edge).collect();
    let home = shuffle_hops.first().expect("hot key never shuffled").dst;
    assert!(
        shuffle_hops.iter().all(|h| h.dst == home),
        "hot key left its home node: {shuffle_hops:?}"
    );
    assert!(
        shuffle_hops.iter().any(|h| h.kind == HopKind::Reduce),
        "hot key never reached a reducer: {shuffle_hops:?}"
    );
    let rendered = render_explain(&snap.job, sample);
    assert!(
        rendered.contains("ingested by reduce")
            && rendered.contains(&format!("final reducer: node {home}")),
        "explain misses the reduce hop: {rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthy_run_sample_goes_straight_to_reduce() {
    let dir = journal_dir("healthy");
    let runtime = RuntimeConfig {
        skew: SkewConfig::off(),
        stats: StatsMode::Full { sample_one_in: 1 },
        ..Default::default()
    };
    let env = Env::with_hamr_runtime(SimParams::test(3, 2), runtime);
    env.hamr.enable_journal(&dir).expect("enable journal");
    let bench = HistogramRatings {
        movies: 200,
        users: 500,
        max_ratings_per_movie: 20,
    };
    bench.seed(&env).expect("seed");
    bench.run_hamr(&env).expect("hamr run");
    drop(env);

    let snap = load_snapshot(&dir, "histogram-ratings");
    assert!(!snap.samples.is_empty(), "1-in-1 sampling left no samples");
    let shuffle_edges: Vec<u32> = snap
        .edges
        .iter()
        .filter(|e| e.shuffle)
        .map(|e| e.edge)
        .collect();
    // Loader-edge samples (synthetic line keys on the Local edge) end
    // at the map; every key that crossed a shuffle edge must end at a
    // reducer.
    let mut shuffled_samples = 0;
    for sample in &snap.samples {
        if !sample.hops.iter().any(|h| shuffle_edges.contains(&h.edge)) {
            continue;
        }
        shuffled_samples += 1;
        let rendered = render_explain(&snap.job, sample);
        assert!(
            rendered.contains("ingested by reduce"),
            "sample never reached a reducer: {rendered}"
        );
    }
    assert!(shuffled_samples > 0, "no sample crossed the shuffle");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cross-engine parity: both engines' sketches agree on the five-key
/// cardinality, and mapred's exact reduce-group count anchors it.
#[test]
fn both_engines_agree_on_rating_cardinality() {
    let env = Env::test(3, 2);
    let bench = HistogramRatings {
        movies: 200,
        users: 500,
        max_ratings_per_movie: 20,
    };
    bench.seed(&env).expect("seed");
    let hamr = bench.run_hamr(&env).expect("hamr run");
    let mr = bench.run_mapred(&env).expect("mapred run");
    assert_eq!(hamr.distinct_keys, 5, "hamr sketch should see 5 ratings");
    assert_eq!(mr.distinct_keys, 5, "mapred sketch should see 5 ratings");
    assert_eq!(mr.exact_distinct_keys, 5, "mapred groups are exact");
    assert!(
        hamr.hot_key_share >= 0.2 - 1e-9 && mr.hot_key_share >= 0.2 - 1e-9,
        "five keys: the hottest must carry at least a fifth \
         (hamr {}, mapred {})",
        hamr.hot_key_share,
        mr.hot_key_share
    );
}

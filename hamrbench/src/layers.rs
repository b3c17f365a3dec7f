//! The per-layer pass. Every figure is taken from outside the engine:
//! by timing the benchmark's own calls into a layer's public functions,
//! from registry and cache-stats deltas across an untraced default run,
//! from untraced ablation runs that change one public config field, and
//! from one run with the causal profiler attached.

use crate::exec::{timed, Input, Tally};
use crate::report::{Metric, Provenance, Report};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workload::Workload;
use crate::Plan;
use hamr_codec::{stable_hash, Frame, FrameBuilder};
use hamr_core::{RuntimeConfig, SkewConfig};
use hamr_trace::{analyze, RingSink, Snapshot, StatsMode, Telemetry, Tracer};
use hamr_workloads::{BenchOutput, Benchmark, Env, SimParams};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed passes over the seeded input through the DFS read path: up
/// to this many, fewer once they have taken half a second (the modeled
/// disk reads at its configured bandwidth).
const DFS_READS: usize = 5;
/// Ablation rounds per run, at the least, so every marginal is a median
/// of several walls even where one round outlasts the budget.
const MIN_ROUNDS: usize = 3;
/// Timed passes of each codec operation.
const CODEC_REPS: usize = 5;
/// Records per frame in the codec timing: the engine's default bin.
const FRAME_RECORDS: usize = 1024;
/// Token records the codec timing builds, at most.
const CODEC_RECORDS: usize = 1 << 18;

const NA_SINGLE_JOB_CACHE: &str = "single job: the resident cache is never consulted";
const NA_SINGLE_JOB_SESSION: &str = "single job: no session chain";
const NA_NO_KV: &str = "the workload keeps no KV state";

/// One stack the ablation rounds time: the default engine, or the
/// default with one public config field changed.
struct Stack {
    name: &'static str,
    /// Its own environment, or `None` to share the default one.
    env: Option<Env>,
    bench: Box<dyn Benchmark>,
    walls: Vec<f64>,
}

pub fn run(plan: &Plan) -> Result<Report, String> {
    let start = Instant::now();
    let w = plan.workload;
    let params = w.params(plan.seed, plan.scale);
    let mut spans = Spans::new();
    let mut tally = Tally::new(plan.corrupt_reference);

    let (env, _) = spans.around("setup", || w.seeded_env(&params, None));
    let env = env?;

    let paths = env.dfs.list("");
    let mut reads = Vec::with_capacity(DFS_READS);
    let mut input = None;
    while reads.len() < DFS_READS && reads.iter().sum::<f64>() < 0.5 {
        let (read, s) = timed(|| Input::read(&env, paths.clone()));
        input = Some(read?);
        reads.push(s);
    }
    let input = input.expect("DFS_READS > 0");
    let lines = input.lines as f64;
    let [encode, decode, hash] = codec_timings(&input);

    // The reference answer, and the MapReduce layer's own figures.
    let mut mapred_walls = Vec::new();
    let (res, s) = timed(|| w.bench(true).run_mapred(&env));
    let mapred_bytes = tally.mapred("mapred", res).map(|o| o.shuffled_bytes);
    mapred_walls.extend(mapred_bytes.map(|_| s));
    input.prune_others(&env);

    let mut stacks = stacks(w, &params)?;
    tally.check("hamr warm-up", w.bench(true).run_hamr(&env));
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Interleave the stacks so drift over the run hits each alike, and
    // leave room for the traced run and one more MapReduce run.
    for rounds in 1.. {
        let round = Instant::now();
        for stack in &mut stacks {
            let env = stack.env.as_ref().unwrap_or(&env);
            let measured = stack.name == "default";
            let before =
                measured.then(|| (env.hamr.registry().snapshot(), env.hamr.resident().stats()));
            let (res, s) = timed(|| stack.bench.run_hamr(env));
            let Some(out) = tally.check(stack.name, res) else {
                continue;
            };
            stack.walls.push(s);
            if let Some((snap, cache)) = before {
                let delta = env.hamr.registry().snapshot().delta(&snap);
                let cache_now = env.hamr.resident().stats();
                for (name, value) in run_layers(w, &out, &delta, cache, cache_now, lines) {
                    samples.entry(name).or_default().push(value);
                }
            }
        }
        let default = Summary::of(&stacks[0].walls).map_or(0.0, |s| s.median);
        let reserve = 2.0 * default + mapred_walls.first().copied().unwrap_or(0.0);
        let spent = start.elapsed().as_secs_f64();
        if rounds >= MIN_ROUNDS && spent + round.elapsed().as_secs_f64() + reserve >= plan.seconds {
            break;
        }
    }

    // KV layer: what the default run left behind, read back key by key.
    let kv = env.hamr.kv();
    let kv_bytes = kv.total_bytes();
    let kv_get = kv_get_timing(&env);

    // The traced run: profiler attached, the benchmark's own spans
    // around each call.
    let bench = w.bench(true);
    let sink = Arc::new(RingSink::new(64, 1 << 18));
    env.hamr
        .attach_profiler(Tracer::new(sink.clone()), Telemetry::disabled());
    let (traced, job_span) = spans.around("hamr.job", || bench.run_hamr(&env));
    env.hamr.detach_profiler();
    let job = spans.get(job_span).clone();
    if let Ok(out) = &traced {
        let mut at = job.start_us;
        for (i, it) in out.iters.iter().enumerate() {
            let end = at + it.elapsed.as_micros() as u64;
            spans.add(&format!("iteration {i}"), Some(job_span), at, end);
            at = end;
        }
    }
    let (mapred_res, mapred_span) = spans.around("mapred.job", || bench.run_mapred(&env));
    let mapred_span = spans.get(mapred_span).clone();
    input.prune_others(&env);
    spans.around("check", || {
        tally.check("hamr traced", traced);
        if tally.mapred("mapred traced", mapred_res).is_some() {
            mapred_walls.push((mapred_span.end_us - mapred_span.start_us) as f64 / 1e6);
        }
    });
    let dropped = sink.dropped();
    let causal = analyze(&sink.drain(), dropped);
    let traced_s = (job.end_us - job.start_us) as f64 / 1e6;

    let walls = |name: &str| {
        &stacks
            .iter()
            .find(|s| s.name == name)
            .expect("a stack")
            .walls
    };
    let default_s = median(walls("default"));
    let marginal = |name: &str| default_s - median(walls(name));
    let layer = |name: &'static str, unit: &'static str| {
        Metric::median(name, unit, samples.get(name).cloned().unwrap_or_default())
    };
    let shares = causal.shares();

    let mut metrics = vec![
        Metric::median(
            "dfs.read_mb_per_s",
            "MB/s",
            reads.iter().map(|s| input.bytes as f64 / 1e6 / s).collect(),
        ),
        Metric::median("codec.encode_ns_per_rec", "ns", encode),
        Metric::median("codec.decode_ns_per_rec", "ns", decode),
        Metric::median("codec.hash_ns_per_key", "ns", hash),
        layer("core.busy_s", "s"),
        layer("core.busy_imbalance", "ratio"),
        layer("core.sched.park_s", "s"),
        layer("core.sched.steals", "count"),
        layer("core.outbuf.stall_s", "s"),
        layer("core.outbuf.stalls_per_krec", "count/krec"),
        layer("core.outbuf.bins_per_krec", "count/krec"),
        layer("core.spilled_bytes", "B"),
        layer("core.skew.combined_frac", "ratio"),
        layer("core.skew.splits", "count"),
        Metric::new("core.skew.marginal_combine_s", "s", marginal("combine_off")),
        Metric::new("core.skew.marginal_split_s", "s", marginal("split_off")),
    ];
    if w.iterative() {
        metrics.extend([
            layer("core.resident.hit_frac", "ratio"),
            layer("core.resident.bytes_saved_per_rec", "B/rec"),
            Metric::new("core.resident.marginal_s", "s", marginal("resident_off")),
            layer("core.session.iter0_s", "s"),
            layer("core.session.iter_s", "s"),
        ]);
    } else {
        metrics.extend([
            Metric::na("core.resident.hit_frac", "ratio", NA_SINGLE_JOB_CACHE),
            Metric::na(
                "core.resident.bytes_saved_per_rec",
                "B/rec",
                NA_SINGLE_JOB_CACHE,
            ),
            Metric::na("core.resident.marginal_s", "s", NA_SINGLE_JOB_CACHE),
            Metric::na("core.session.iter0_s", "s", NA_SINGLE_JOB_SESSION),
            Metric::na("core.session.iter_s", "s", NA_SINGLE_JOB_SESSION),
        ]);
    }
    metrics.extend([
        layer("simnet.shuffled_bytes_per_rec", "B/rec"),
        layer("simnet.messages_per_krec", "count/krec"),
        layer("simnet.partition_skew", "ratio"),
    ]);
    match kv_get {
        Some(get) if kv_bytes > 0 => metrics.extend([
            Metric::new("kvstore.bytes", "B", kv_bytes as f64),
            Metric::median("kvstore.get_ns", "ns", get),
        ]),
        _ => metrics.extend([
            Metric::na("kvstore.bytes", "B", NA_NO_KV),
            Metric::na("kvstore.get_ns", "ns", NA_NO_KV),
        ]),
    }
    metrics.extend([
        Metric::new("trace.stats.marginal_s", "s", marginal("stats_off")),
        Metric::new("trace.compute_share", "ratio", shares[0]),
        Metric::new("trace.stall_share", "ratio", shares[2]),
        Metric::new("trace.net_share", "ratio", shares[3]),
        Metric::new("trace.idle_share", "ratio", shares[4]),
        Metric::new(
            "trace.critical_path_frac",
            "ratio",
            causal.critical_path.total_us as f64 / 1e6 / traced_s,
        ),
        Metric::new("trace.overhead_frac", "ratio", traced_s / default_s - 1.0),
        Metric::median("mapred.job_s", "s", mapred_walls),
        Metric::new(
            "mapred.shuffled_bytes_per_rec",
            "B/rec",
            mapred_bytes.map_or(f64::NAN, |b| b as f64 / lines),
        ),
        Metric::median("core.stripped_job_s", "s", walls("stripped").clone()),
    ]);

    let mut notes = vec![format!(
        "# stacks (median s over rounds): {}",
        stacks
            .iter()
            .map(|s| format!("{}={:.4} (n={})", s.name, median(&s.walls), s.walls.len()))
            .collect::<Vec<_>>()
            .join(" ")
    )];
    notes.push(format!(
        "# traced run: wall={traced_s:.4}s critical_path={:.3}ms hops={} events_dropped={dropped}",
        causal.critical_path.total_us as f64 / 1e3,
        causal.critical_path.hops
    ));
    if dropped > 0 {
        notes.push(
            "# WARNING: the trace sink dropped events; trace.* is built on a truncated log".into(),
        );
    }
    notes.extend(spans.table());

    Ok(Report {
        provenance: Provenance::new(w, plan.seed, plan.scale, plan.seconds, true),
        input_lines: input.lines,
        metrics,
        tally,
        spans_json: Some(spans.to_json()),
        notes,
    })
}

/// The default stack first, then one stack per ablation, each set up
/// outside any timing. `stripped` turns off every default-on layer.
fn stacks(w: Workload, params: &SimParams) -> Result<Vec<Stack>, String> {
    let stack = |name, runtime: Option<RuntimeConfig>, resident| -> Result<Stack, String> {
        let env = match runtime {
            Some(runtime) => Some(w.seeded_env(params, Some(runtime))?),
            None => None,
        };
        Ok(Stack {
            name,
            env,
            bench: w.bench(resident),
            walls: Vec::new(),
        })
    };
    let skew = |skew| RuntimeConfig {
        skew,
        ..RuntimeConfig::default()
    };
    let mut stacks = vec![
        stack("default", None, true)?,
        stack(
            "combine_off",
            Some(skew(SkewConfig {
                combine: false,
                ..SkewConfig::default()
            })),
            true,
        )?,
        stack(
            "split_off",
            Some(skew(SkewConfig {
                split: false,
                ..SkewConfig::default()
            })),
            true,
        )?,
        stack(
            "stats_off",
            Some(RuntimeConfig {
                stats: StatsMode::Off,
                ..RuntimeConfig::default()
            }),
            true,
        )?,
    ];
    if w.iterative() {
        stacks.push(stack("resident_off", None, false)?);
    }
    stacks.push(stack(
        "stripped",
        Some(RuntimeConfig {
            stats: StatsMode::Off,
            ..skew(SkewConfig::off())
        }),
        false,
    )?);
    Ok(stacks)
}

/// Per-layer figures of one untraced default run, from its output and
/// the registry and resident-cache deltas across it.
fn run_layers(
    w: Workload,
    out: &BenchOutput,
    delta: &Snapshot,
    cache_before: hamr_core::ResidentStats,
    cache_after: hamr_core::ResidentStats,
    lines: f64,
) -> Vec<(&'static str, f64)> {
    let busy = per_node(delta, "node_busy_us_total");
    let records_in = per_node(delta, "node_records_in_total");
    let krec = lines / 1e3;
    let mut v = vec![
        ("core.busy_s", busy.iter().sum::<f64>() / 1e6),
        ("core.busy_imbalance", max_over_mean(&busy)),
        ("core.sched.park_s", out.park_seconds),
        ("core.sched.steals", total(delta, "steals_total")),
        (
            "core.outbuf.stall_s",
            total(delta, "flowlet_stall_us_total") / 1e6,
        ),
        (
            "core.outbuf.stalls_per_krec",
            total(delta, "flow_control_stalls_total") / krec,
        ),
        (
            "core.outbuf.bins_per_krec",
            total(delta, "flowlet_bins_out_total") / krec,
        ),
        ("core.spilled_bytes", total(delta, "spilled_bytes_total")),
        (
            "core.skew.combined_frac",
            out.combined_records as f64 / out.shuffle_records.max(1) as f64,
        ),
        ("core.skew.splits", out.splits_triggered as f64),
        (
            "simnet.shuffled_bytes_per_rec",
            out.shuffled_bytes as f64 / lines,
        ),
        (
            "simnet.messages_per_krec",
            total(delta, "shuffled_messages_total") / krec,
        ),
        ("simnet.partition_skew", max_over_mean(&records_in)),
    ];
    if w.iterative() {
        let hits = cache_after.hits - cache_before.hits;
        let misses = cache_after.misses - cache_before.misses;
        let saved = cache_after.bytes_saved - cache_before.bytes_saved;
        let iters: Vec<f64> = out.iters.iter().map(|i| i.elapsed.as_secs_f64()).collect();
        v.extend([
            (
                "core.resident.hit_frac",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("core.resident.bytes_saved_per_rec", saved as f64 / lines),
            (
                "core.session.iter0_s",
                iters.first().copied().unwrap_or(f64::NAN),
            ),
            ("core.session.iter_s", median(iters.get(2..).unwrap_or(&[]))),
        ]);
    }
    v
}

/// Sum of a HAMR counter over every label set.
fn total(delta: &Snapshot, name: &str) -> f64 {
    hamr_counters(delta, name).map(|(_, v)| v).sum::<u64>() as f64
}

/// A HAMR counter per node, in node order.
fn per_node(delta: &Snapshot, name: &str) -> Vec<f64> {
    let mut by_node: BTreeMap<u32, u64> = BTreeMap::new();
    for (node, v) in hamr_counters(delta, name) {
        if let Some(node) = node {
            *by_node.entry(node).or_default() += v;
        }
    }
    by_node.into_values().map(|v| v as f64).collect()
}

fn hamr_counters<'a>(
    delta: &'a Snapshot,
    name: &'a str,
) -> impl Iterator<Item = (Option<u32>, u64)> + 'a {
    delta.series.iter().filter_map(move |s| match s.value {
        hamr_trace::SampleValue::Counter(v)
            if s.name == name && s.labels.engine.as_deref() == Some("hamr") =>
        {
            Some((s.labels.node, v))
        }
        _ => None,
    })
}

fn max_over_mean(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let max = xs.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Nanoseconds per record of `FrameBuilder::push` + `freeze`, of
/// `Frame::parse` + `iter`, and per key of `stable_hash`, over records
/// built from the input's tokens (key = token, value = 8 bytes).
fn codec_timings(input: &Input) -> [Vec<f64>; 3] {
    let mut keys: Vec<&[u8]> = Vec::new();
    'fill: for block in &input.blocks {
        for tok in block.split(|b| b.is_ascii_whitespace() || matches!(b, b',' | b':')) {
            if !tok.is_empty() {
                keys.push(tok);
                if keys.len() == CODEC_RECORDS {
                    break 'fill;
                }
            }
        }
    }
    let values: Vec<[u8; 8]> = (0..keys.len() as u64).map(u64::to_le_bytes).collect();
    let hashes: Vec<u64> = keys.iter().map(|k| stable_hash(k)).collect();
    let n = keys.len().max(1) as f64;
    let (mut enc, mut dec, mut hash) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CODEC_REPS {
        let (frames, s) = timed(|| {
            let mut frames = Vec::with_capacity(keys.len() / FRAME_RECORDS + 1);
            for (i, chunk) in keys.chunks(FRAME_RECORDS).enumerate() {
                let mut b = FrameBuilder::new();
                for (j, k) in chunk.iter().enumerate() {
                    let r = i * FRAME_RECORDS + j;
                    b.push(hashes[r], k, &values[r]);
                }
                frames.push(b.freeze());
            }
            black_box(frames)
        });
        enc.push(s * 1e9 / n);
        let (_, s) = timed(|| {
            let mut acc = 0u64;
            for f in &frames {
                let parsed = Frame::parse(f.data().clone()).expect("a frozen frame parses");
                for (h, k, v) in parsed.iter() {
                    acc = acc.wrapping_add(h ^ (k.len() + v.len()) as u64);
                }
            }
            black_box(acc)
        });
        dec.push(s * 1e9 / n);
        let (_, s) = timed(|| {
            let acc = keys.iter().fold(0u64, |a, k| a ^ stable_hash(black_box(k)));
            black_box(acc)
        });
        hash.push(s * 1e9 / n);
    }
    [enc, dec, hash]
}

/// Nanoseconds per `KvStore::get` over every key present, or `None`
/// when the store is empty.
fn kv_get_timing(env: &Env) -> Option<Vec<f64>> {
    let kv = env.hamr.kv();
    let mut keys = Vec::new();
    for node in 0..kv.cluster_size() {
        kv.shard(node).for_each(|k, _| keys.push(k.clone()));
    }
    if keys.is_empty() {
        return None;
    }
    let passes = (0..CODEC_REPS)
        .map(|_| {
            let (_, s) = timed(|| {
                for k in &keys {
                    black_box(kv.get(black_box(k)));
                }
            });
            s * 1e9 / keys.len() as f64
        })
        .collect();
    Some(passes)
}

//! HistogramRatings (§4, §5.2): histogram of individual user ratings.
//!
//! The pathological benchmark: the key space is exactly five values
//! (ratings 1..=5), so the hash shuffle concentrates the entire input
//! on at most five nodes, flow control throttles the loaders, and the
//! shared partial-reduce accumulators serialize under contention —
//! the combination the paper blames for Hadoop beating HAMR 3x here.

use crate::env::{scaled, unique_path, BenchOutput, Env};
use crate::gen::movies::{movie_lines, parse_movie_line};
use crate::wordcount::mr_output_checksum;
use crate::{pair_checksum, Benchmark};
use hamr_core::{typed, Emitter, Exchange, JobBuilder};
use hamr_mapred::{line_map_fn, reduce_fn, JobConf, ReduceOutput};
use std::sync::Arc;
use std::time::Instant;

const INPUT: &str = "histratings/input.txt";

pub struct HistogramRatings {
    pub movies: usize,
    pub users: usize,
    pub max_ratings_per_movie: usize,
}

impl Default for HistogramRatings {
    fn default() -> Self {
        // ~30 GB / 4096 ≈ 7 MB of rating lines.
        HistogramRatings {
            movies: 80_000,
            users: 10_000,
            max_ratings_per_movie: 25,
        }
    }
}

impl HistogramRatings {
    fn lines(&self, env: &Env) -> Vec<String> {
        movie_lines(
            scaled(self.movies, env.params.scale),
            self.users,
            self.max_ratings_per_movie,
            env.params.seed.wrapping_add(2),
        )
    }

    pub fn run_hamr_with(&self, env: &Env, combiner: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let mut job = JobBuilder::new("histogram-ratings");
        let loader = job.add_loader("TextLoader", typed::dfs_line_loader(INPUT));
        let rating_map = job.add_map(
            "RatingMap",
            typed::map_fn(|_off: u64, line: String, out: &mut Emitter| {
                if let Some((_, ratings)) = parse_movie_line(&line) {
                    for (_, r) in ratings {
                        out.emit_t(0, &u64::from(r), &1u64);
                    }
                }
            }),
        );
        let sum = job.add_partial_reduce("RatingSum", typed::sum_reducer::<u64>());
        job.connect(loader, rating_map, Exchange::Local);
        if combiner {
            let local = job.add_partial_reduce("LocalCombine", typed::sum_reducer::<u64>());
            job.connect(rating_map, local, Exchange::Local);
            job.connect_combined(local, sum, Exchange::Hash, typed::sum_combiner());
        } else {
            // The in-node combiner (on by default, `HAMR_SKEW=combine`)
            // folds the per-rating counts inside each map task before
            // the shuffle, so each task ships at most one partial per
            // rating; the registration is inert under `HAMR_SKEW=off`.
            job.connect_combined(rating_map, sum, Exchange::Hash, typed::sum_combiner());
        }
        job.capture_output(sum);
        let result = env
            .hamr
            .run(job.build().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let recs = result.output(sum);
        let shuffle_records = result
            .metrics
            .flowlets
            .get(&rating_map)
            .map(|f| f.records_out)
            .unwrap_or(0);
        let mut out = BenchOutput {
            elapsed: start.elapsed(),
            checksum: pair_checksum(recs.iter().map(|r| (&r.key[..], &r.value[..]))),
            records: recs.len() as u64,
            shuffle_records,
            shuffled_bytes: result.metrics.shuffled_bytes,
            ..Default::default()
        };
        out.fold_sched_metrics(&result.metrics, 0);
        Ok(out)
    }

    pub fn run_mapred_with(&self, env: &Env, combiner: bool) -> Result<BenchOutput, String> {
        let start = Instant::now();
        let output = unique_path("histratings/out");
        let mapper = Arc::new(line_map_fn(|_off, line, out| {
            if let Some((_, ratings)) = parse_movie_line(line) {
                for (_, r) in ratings {
                    out.emit_t(&u64::from(r), &1u64);
                }
            }
        }));
        let reducer = Arc::new(reduce_fn(|k: u64, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        }));
        let mut conf = JobConf::new(
            "histogram-ratings",
            vec![INPUT.to_string()],
            &output,
            mapper,
            reducer.clone(),
        );
        if combiner {
            conf = conf.with_combiner(reducer);
        }
        let stats = env.mr.run(&conf).map_err(|e| e.to_string())?;
        let (checksum, records) = mr_output_checksum(env, &output)?;
        let mut out = BenchOutput {
            elapsed: start.elapsed(),
            checksum,
            records,
            shuffle_records: stats.map_records_out,
            shuffled_bytes: stats.shuffled_bytes,
            ..Default::default()
        };
        out.fold_mr_stats(&stats);
        Ok(out)
    }
}

impl Benchmark for HistogramRatings {
    fn name(&self) -> &'static str {
        "HistogramRatings"
    }

    fn seed(&self, env: &Env) -> Result<(), String> {
        env.seed_text(INPUT, &self.lines(env))
    }

    fn run_hamr(&self, env: &Env) -> Result<BenchOutput, String> {
        self.run_hamr_with(env, false)
    }

    fn run_mapred(&self, env: &Env) -> Result<BenchOutput, String> {
        self.run_mapred_with(env, true)
    }
}

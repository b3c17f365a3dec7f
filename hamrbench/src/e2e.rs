//! The end-to-end pass: what a user of the engine sees. Every timed
//! run is untraced and the counting allocator stays disarmed; heap
//! figures come from separate counting runs at the end.

use crate::alloc::counted;
use crate::exec::{timed, Input, Tally};
use crate::report::{Metric, Provenance, Report};
use crate::stats::{median, Summary};
use crate::Plan;
use std::time::Instant;

/// Fresh set-ups per run, at the least; beyond that they get about a
/// tenth of the time the engines take.
const MIN_SETUP: usize = 3;
/// Timed executions per engine, at the least, whatever the budget.
const MIN_HAMR: usize = 3;
const MIN_MAPRED: usize = 2;

pub fn run(plan: &Plan) -> Result<Report, String> {
    let start = Instant::now();
    let w = plan.workload;
    let params = w.params(plan.seed, plan.scale);
    let bench = w.bench(true);

    let (env, s) = timed(|| w.seeded_env(&params, None));
    let env = env?;
    let mut setup = vec![s];
    let input = Input::read(&env, env.dfs.list(""))?;
    let lines = input.lines as f64;
    let mut tally = Tally::new(plan.corrupt_reference);

    // Warm-up, checked but not sampled; the first MapReduce answer is
    // the reference for everything after it.
    tally.mapred("mapred warm-up", bench.run_mapred(&env));
    input.prune_others(&env);
    tally.check("hamr warm-up", bench.run_hamr(&env));

    // Interleave fresh set-ups and the two engines through the budget,
    // so the host's drifting speed hits each alike: the engines get
    // about half the time each, set-ups a tenth of theirs. Leave room
    // for the counting runs.
    let counting_reps = if w.iterative() { 3 } else { 5 };
    let (mut hamr, mut mapred) = (Vec::new(), Vec::new());
    let (mut hamr_runs, mut mapred_runs) = (0, 0);
    let (mut hamr_total, mut mapred_total) = (0.0, 0.0);
    loop {
        let reserve = Summary::of(&hamr).map_or(0.0, |s| s.median * 1.5 * counting_reps as f64);
        let spent = start.elapsed().as_secs_f64();
        let minimum =
            hamr_runs >= MIN_HAMR && mapred_runs >= MIN_MAPRED && setup.len() >= MIN_SETUP;
        if minimum && spent + reserve >= plan.seconds {
            break;
        }
        let setup_total: f64 = setup.iter().sum();
        if (setup.len() < MIN_SETUP && hamr_runs >= MIN_HAMR)
            || 10.0 * setup_total < hamr_total + mapred_total
        {
            let (fresh, s) = timed(|| w.seeded_env(&params, None));
            drop(fresh?);
            setup.push(s);
        } else if mapred_total < hamr_total || (hamr_runs >= MIN_HAMR && mapred_runs < MIN_MAPRED) {
            let (res, s) = timed(|| bench.run_mapred(&env));
            if tally.mapred("mapred", res).is_some() {
                mapred.push(s);
            }
            mapred_runs += 1;
            mapred_total += s;
            input.prune_others(&env);
        } else {
            let (res, s) = timed(|| bench.run_hamr(&env));
            if tally.check("hamr", res).is_some() {
                hamr.push(s);
            }
            hamr_runs += 1;
            hamr_total += s;
        }
    }

    let (mut allocs, mut peaks) = (Vec::new(), Vec::new());
    for _ in 0..counting_reps {
        let (res, counts) = counted(|| bench.run_hamr(&env));
        if tally.check("hamr counting", res).is_some() {
            allocs.push(counts.allocs as f64 / lines);
            peaks.push(counts.peak_bytes as f64 / 1e6);
        }
    }

    let job = median(&hamr);
    let metrics = vec![
        Metric::median("setup_s", "s", setup),
        Metric::new("job_s", "s", job).with_samples(hamr.clone()),
        Metric::new("input_rec_per_s", "rec/s", lines / job)
            .with_samples(hamr.iter().map(|s| lines / s).collect()),
        Metric::new("speedup_vs_mapred", "x", median(&mapred) / job)
            .with_samples(mapred.iter().map(|m| m / job).collect()),
        Metric::median("allocs_per_input_rec", "count", allocs),
        Metric::median("peak_heap_mb", "MB", peaks),
    ];
    Ok(Report {
        provenance: Provenance::new(w, plan.seed, plan.scale, plan.seconds, false),
        input_lines: input.lines,
        metrics,
        tally,
        spans_json: None,
        notes: Vec::new(),
    })
}

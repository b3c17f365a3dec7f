//! Cross-scheduler differential: every workload must compute the same
//! answer under both scheduler modes. The work-stealing scheduler
//! moves tasks between workers mid-flight and the deterministic
//! scheduler replays them in a seed-fixed order — neither is allowed
//! to change a single output bit relative to the MapReduce baseline,
//! the independent engine that computes each benchmark's reference
//! answer on the same seeded input.
//!
//! Each mode is pinned in the runtime config, so these tests do not
//! depend on the default scheduler.

use hamr_core::{RuntimeConfig, SchedMode, Supervision, WatchdogConfig};
use hamr_workloads::{all_benchmarks, skewed_variants, Benchmark, Env, SimParams};

const MODES: [SchedMode; 2] = [
    SchedMode::WorkStealing,
    SchedMode::Deterministic { seed: 7 },
];

/// A fresh environment whose HAMR cluster runs under `mode`.
fn env_for(mode: SchedMode) -> Env {
    let runtime = RuntimeConfig {
        sched: mode,
        ..Default::default()
    };
    Env::with_hamr_runtime(SimParams::test(3, 2), runtime)
}

/// The MapReduce engine's (checksum, records) for `bench` — the oracle
/// every scheduler is held to.
fn mapred_reference(bench: &dyn Benchmark) -> (u64, u64) {
    let reference = Env::test(3, 2);
    bench.seed(&reference).expect("seed");
    let mr = bench.run_mapred(&reference).expect("mapred run");
    assert!(
        mr.records > 0,
        "{}: mapred produced no output",
        bench.name()
    );
    (mr.checksum, mr.records)
}

/// Run one benchmark under every scheduler mode (fresh environment per
/// mode; the generators are seed-deterministic, so each environment
/// holds a bit-identical input) and demand the MapReduce answer.
fn check(bench: &dyn Benchmark) {
    let want = mapred_reference(bench);
    for mode in MODES {
        let env = env_for(mode);
        bench.seed(&env).expect("seed");
        // Every mode runs supervised: the custody ledger must balance
        // and the watchdog must stay silent regardless of how the
        // scheduler shuffles tasks between workers.
        env.hamr.attach_supervisor(Supervision {
            watchdog: WatchdogConfig::default(),
            ..Default::default()
        });
        let out = bench.run_hamr(&env).expect("hamr run");
        env.hamr
            .last_audit()
            .expect("audit ran")
            .check()
            .unwrap_or_else(|v| panic!("{}: {mode:?}: bin custody violated: {v:?}", bench.name()));
        let events = env.hamr.watchdog_events();
        assert!(
            events.is_empty(),
            "{}: {mode:?}: clean workload raised watchdog events: {events:?}",
            bench.name()
        );
        assert_eq!(
            (out.checksum, out.records),
            want,
            "{}: {mode:?} disagrees with mapred",
            bench.name()
        );
    }
}

/// Chain mode: the PageRank session chain serves its resident
/// partition under every scheduler — partition-stable ownership is
/// asserted against the scheduler, so a steal or a replay must never
/// change which frames are pinned where — and the served answer must
/// match both a cache-off chain and the MapReduce chain bit-for-bit.
#[test]
fn pagerank_chain_cache_agrees_across_schedulers() {
    use hamr_workloads::pagerank::PageRank;
    let want = mapred_reference(&PageRank::default());
    for mode in MODES {
        let env = env_for(mode);
        // Pinned on, so an ambient HAMR_RESIDENT=off cannot hollow
        // out the serve assertion.
        env.hamr.resident().set_enabled(true);
        let on = PageRank::default();
        on.seed(&env).expect("seed");
        let served = on.run_hamr(&env).expect("cache-on run");
        let hits: u64 = served.iters.iter().map(|i| i.cache_hits).sum();
        assert!(
            hits >= 2,
            "{mode:?}: iterations >=2 must serve the resident partition (hits={hits})"
        );
        let off = PageRank {
            resident: false,
            ..Default::default()
        };
        let recomputed = off.run_hamr(&env).expect("cache-off run");
        assert_eq!(
            (served.checksum, served.records),
            (recomputed.checksum, recomputed.records),
            "{mode:?}: resident serving changed the answer"
        );
        assert_eq!(
            (served.checksum, served.records),
            want,
            "{mode:?} disagrees with mapred in chain mode"
        );
    }
}

#[test]
fn default_workloads_agree_across_schedulers() {
    for bench in all_benchmarks() {
        check(bench.as_ref());
    }
}

#[test]
fn skewed_workloads_agree_across_schedulers() {
    for bench in skewed_variants() {
        check(bench.as_ref());
    }
}

/// Every scheduler × combiner off and on: combining pre-folds records
/// inside tasks whose grouping depends on task ordering, so each
/// scheduler runs both settings, and every run must match the
/// MapReduce reference — checksum identity across both engines.
#[test]
fn skewed_workloads_agree_across_schedulers_and_mitigations() {
    use hamr_core::SkewConfig;
    let combos = [
        ("off", SkewConfig::off()),
        ("combine", SkewConfig::default()),
    ];
    for bench in skewed_variants() {
        let want = mapred_reference(bench.as_ref());
        for mode in MODES {
            for (combo, skew) in &combos {
                let runtime = RuntimeConfig {
                    sched: mode,
                    skew: skew.clone(),
                    ..Default::default()
                };
                let env = Env::with_hamr_runtime(SimParams::test(3, 2), runtime);
                bench.seed(&env).expect("seed");
                let out = bench.run_hamr(&env).expect("hamr run");
                assert_eq!(
                    (out.checksum, out.records),
                    want,
                    "{}: {mode:?} with mitigation '{combo}' disagrees with mapred",
                    bench.name()
                );
            }
        }
    }
}

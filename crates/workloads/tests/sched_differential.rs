//! Cross-scheduler differential: every workload must compute the same
//! answer under all three scheduler modes. The work-stealing scheduler
//! moves tasks between workers mid-flight and the deterministic
//! scheduler replays them in a seed-fixed order — neither is allowed
//! to change a single output bit relative to the centralized baseline.
//!
//! Each mode is pinned through `Env::with_hamr_sched`, so these tests
//! hold regardless of any `HAMR_SCHED` environment override.

use hamr_core::{SchedMode, Supervision, WatchdogConfig};
use hamr_workloads::{all_benchmarks, skewed_variants, Benchmark, Env, SimParams};

const MODES: [SchedMode; 3] = [
    SchedMode::Centralized,
    SchedMode::WorkStealing,
    SchedMode::Deterministic { seed: 7 },
];

/// Run one benchmark under every scheduler mode (fresh environment per
/// mode; the generators are seed-deterministic, so each environment
/// holds a bit-identical input) and demand identical results.
fn check(bench: &dyn Benchmark) {
    let mut baseline: Option<(u64, u64)> = None;
    for mode in MODES {
        let env = Env::with_hamr_sched(SimParams::test(3, 2), mode);
        bench.seed(&env).expect("seed");
        // Every mode runs supervised: the custody ledger must balance
        // and the watchdog must stay silent regardless of how the
        // scheduler shuffles tasks between workers.
        env.hamr.attach_supervisor(Supervision {
            watchdog: WatchdogConfig::default(),
            doctor_dir: None,
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
        assert!(
            out.records > 0,
            "{} produced no output under {mode:?}",
            bench.name()
        );
        match baseline {
            None => baseline = Some((out.checksum, out.records)),
            Some((checksum, records)) => {
                assert_eq!(
                    (out.checksum, out.records),
                    (checksum, records),
                    "{}: {mode:?} disagrees with {:?}",
                    bench.name(),
                    MODES[0]
                );
            }
        }
    }
}

/// Chain mode: the PageRank session chain serves its resident
/// partition under every scheduler — partition-stable ownership is
/// asserted against the scheduler, so a steal or a replay must never
/// change which frames are pinned where — and the served answer must
/// match both a cache-off chain and the other modes bit-for-bit.
#[test]
fn pagerank_chain_cache_agrees_across_schedulers() {
    use hamr_workloads::pagerank::PageRank;
    let mut baseline: Option<(u64, u64)> = None;
    for mode in MODES {
        let env = Env::with_hamr_sched(SimParams::test(3, 2), mode);
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
        match baseline {
            None => baseline = Some((served.checksum, served.records)),
            Some(want) => assert_eq!(
                (served.checksum, served.records),
                want,
                "{mode:?} disagrees with {:?} in chain mode",
                MODES[0]
            ),
        }
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
    use hamr_core::{RuntimeConfig, SkewConfig};
    let combos = [
        ("off", SkewConfig::off()),
        ("combine", SkewConfig::default()),
    ];
    for bench in skewed_variants() {
        let reference = Env::test(3, 2);
        bench.seed(&reference).expect("seed");
        let mr = bench.run_mapred(&reference).expect("mapred run");
        let want = (mr.checksum, mr.records);
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

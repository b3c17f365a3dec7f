//! `hamrbench` — the HAMR benchmark.
//!
//! ```text
//! hamrbench --workload <wordcount|histratings|pagerank-net>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload on both engines at the baseline shape (4 nodes x
//! 2 worker threads, harness-default input sizes), checks every HAMR
//! result against the MapReduce reference on the same inputs, and
//! prints one line per metric followed by one JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones, from untraced runs;
//! with `--trace 1` they are the per-layer ones, from registry deltas,
//! ablation runs and one profiled run. A record with provenance and
//! every metric's quartiles is written under `hamrbench/out/`. See
//! README.md for the workloads, the metrics and what each layer metric
//! should move.

mod alloc;
mod e2e;
mod exec;
mod layers;
mod report;
mod spans;
mod stats;
mod workload;

use report::Report;
use std::path::Path;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Environment variables the engine reads to change its own defaults.
/// Any of them set would make the numbers measure something other than
/// the code's defaults, so the benchmark refuses to run.
pub const ENGINE_VARS: [&str; 8] = [
    "HAMR_SCHED",
    "HAMR_SKEW",
    "HAMR_STATS",
    "HAMR_RESIDENT",
    "HAMR_RESIDENT_BUDGET",
    "HAMR_JOURNAL",
    "HAMR_WATCHDOG",
    "HAMR_HTTP",
];

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget; the minimum repetitions may overrun it.
    pub seconds: f64,
    /// Generator scale: 1.0 outside the self-tests.
    pub scale: f64,
    pub trace: bool,
    /// Self-test hook: corrupt the MapReduce reference checksum.
    pub corrupt_reference: bool,
}

/// The first engine variable set in `vars`, if any.
pub fn engine_var_set(vars: impl IntoIterator<Item = (String, String)>) -> Option<String> {
    vars.into_iter()
        .map(|(k, _)| k)
        .find(|k| ENGINE_VARS.contains(&k.as_str()))
}

fn parse_args(args: &[String]) -> Result<Plan, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u32>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be 1..=120".to_string());
                }
                seconds = Some(f64::from(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Plan {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        scale: 1.0,
        trace: trace.unwrap_or(false),
        corrupt_reference: false,
    })
}

pub fn measure(plan: &Plan) -> Result<Report, String> {
    if plan.trace {
        layers::run(plan)
    } else {
        e2e::run(plan)
    }
}

fn write_record(report: &Report) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let p = &report.provenance;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        p.workload.name(),
        p.seed,
        u8::from(p.trace)
    ));
    std::fs::write(&path, report.record_json() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    if let Some(var) = engine_var_set(std::env::vars()) {
        eprintln!(
            "hamrbench: {var} is set; unset every engine variable ({}) so the benchmark \
             measures the code's own defaults",
            ENGINE_VARS.join(", ")
        );
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse_args(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("hamrbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match measure(&plan) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("hamrbench: {} failed: {e}", plan.workload.name());
            std::process::exit(1);
        }
    };
    if let Err(e) = write_record(&report) {
        eprintln!("hamrbench: could not write the result record: {e}");
        std::process::exit(1);
    }
    for line in report.human_lines() {
        println!("{line}");
    }
    println!("{}", report.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamr_trace::json::{parse, Json};

    /// Small enough that every workload runs in seconds, even unoptimized.
    fn tiny(workload: Workload, trace: bool) -> Plan {
        Plan {
            workload,
            seed: 7,
            seconds: 1.0,
            scale: 0.02,
            trace,
            corrupt_reference: false,
        }
    }

    /// `(name, unit)` of every metric BENCHMARK.json declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        json.get(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn result_metrics(report: &Report) -> Vec<(String, String)> {
        let line = parse(&report.result_line()).expect("the result line is JSON");
        let Json::Obj(keys) = &line else {
            panic!("the result line is an object")
        };
        let keys: Vec<_> = keys.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        let mut out: Vec<_> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn every_workload_prints_every_declared_metric_with_its_unit() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want = declared(section);
            want.sort();
            for w in Workload::ALL {
                let report = measure(&tiny(w, trace)).expect("tiny run");
                assert!(report.correct(), "{}: {:?}", w.name(), report.tally.notes);
                assert_eq!(result_metrics(&report), want, "{} trace={trace}", w.name());
                let human = report.human_lines().join("\n");
                for (name, unit) in &want {
                    assert!(
                        human.contains(&format!("{name} ")) && human.contains(unit.as_str()),
                        "{name} missing from the human lines"
                    );
                }
                assert!(human.contains("failed_frac"));
                parse(&report.record_json()).expect("the record is JSON");
            }
        }
    }

    #[test]
    fn layers_a_workload_does_not_use_say_so() {
        let report = measure(&tiny(Workload::WordCount, true)).expect("tiny run");
        for name in [
            "core.resident.hit_frac",
            "core.session.iter_s",
            "kvstore.get_ns",
        ] {
            let m = report.metrics.iter().find(|m| m.name == name).unwrap();
            assert!(m.na.is_some() && m.value == 0.0, "{name}");
        }
        let report = measure(&tiny(Workload::PageRankNet, true)).expect("tiny run");
        assert!(report.metrics.iter().all(|m| m.na.is_none()));
        let spans = parse(report.spans_json.as_deref().unwrap()).unwrap();
        let names: Vec<_> = spans
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        for want in [
            "setup",
            "hamr.job",
            "iteration 0",
            "iteration 4",
            "mapred.job",
            "check",
        ] {
            assert!(
                names.iter().any(|n| n == want),
                "span {want} missing: {names:?}"
            );
        }
    }

    #[test]
    fn a_wrong_reference_is_counted_not_ignored_and_not_fatal() {
        for trace in [false, true] {
            let plan = Plan {
                corrupt_reference: true,
                ..tiny(Workload::WordCount, trace)
            };
            let report = measure(&plan).expect("a wrong answer does not abort the run");
            let t = &report.tally;
            assert!(t.failed > 0 && t.failed < t.attempted, "{t:?}");
            assert!(report.tally.failed_frac() > 0.0);
            assert!(!report.correct());
            assert!(report.result_line().starts_with("{\"correct\":false,"));
            let job = report.metrics.iter().find(|m| m.value.is_finite());
            assert!(job.is_some(), "metrics are still measured");
        }
    }

    #[test]
    fn engine_variables_are_refused() {
        let var = |k: &str| (k.to_string(), "x".to_string());
        assert_eq!(engine_var_set([var("PATH"), var("HAMR_OTHER")]), None);
        for name in ENGINE_VARS {
            assert_eq!(
                engine_var_set([var("PATH"), var(name)]).as_deref(),
                Some(name)
            );
        }
    }

    /// The guard's list must name every `HAMR_*` variable the engine's
    /// library code reads, or an unlisted one could change the program
    /// under test unnoticed.
    #[test]
    fn the_guard_lists_every_variable_the_engine_reads() {
        fn walk(dir: &Path, found: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(&path, found);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    for (i, _) in text.match_indices("\"HAMR_") {
                        let name: String = text[i + 1..]
                            .chars()
                            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
                            .collect();
                        found.push(name);
                    }
                }
            }
        }
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
        let mut found = Vec::new();
        for krate in std::fs::read_dir(crates).unwrap() {
            let src = krate.unwrap().path().join("src");
            if src.is_dir() {
                walk(&src, &mut found);
            }
        }
        found.sort();
        found.dedup();
        assert!(!found.is_empty());
        for name in &found {
            assert!(
                ENGINE_VARS.contains(&name.as_str()),
                "{name} is read but not guarded"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let plan = parse_args(&args(
            "--workload pagerank-net --seed 3 --seconds 5 --trace 1",
        ));
        let plan = plan.unwrap();
        assert_eq!(
            (plan.workload, plan.seed, plan.seconds, plan.trace),
            (Workload::PageRankNet, 3, 5.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 5",
            "--workload wordcount --seconds 5",
            "--workload wordcount --seed 1 --seconds 0",
            "--workload wordcount --seed 1 --seconds 5 --trace 2",
            "--workload wordcount --seed 1 --seconds 5 --extra 1",
            "--workload wordcount --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}

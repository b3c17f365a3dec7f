//! Metrics, provenance, and the two renderings of a run: lines for a
//! person and one JSON object for a machine.

use crate::exec::Tally;
use crate::stats::{median, Summary};
use crate::workload::{Workload, NODES, THREADS_PER_NODE};
use hamr_trace::json::escape;
use std::fmt::Write as _;

/// One named metric of one run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The raw samples behind `value`, when it has any.
    pub samples: Vec<f64>,
    /// Why a layer that does no work on this workload reads 0.
    pub na: Option<&'static str>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
            na: None,
        }
    }

    /// The median of `samples`.
    pub fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric::new(name, unit, median(&samples)).with_samples(samples)
    }

    /// Attach the raw samples a derived value was computed from.
    pub fn with_samples(self, samples: Vec<f64>) -> Metric {
        Metric { samples, ..self }
    }

    /// A layer this workload does not exercise: printed as 0, with why.
    pub fn na(name: &'static str, unit: &'static str, why: &'static str) -> Metric {
        Metric {
            na: Some(why),
            ..Metric::new(name, unit, 0.0)
        }
    }
}

/// Where a result was measured, so only like hosts are compared.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub workload: Workload,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub cpu: String,
    pub commit: String,
}

impl Provenance {
    pub fn new(workload: Workload, seed: u64, scale: f64, seconds: f64, trace: bool) -> Self {
        Provenance {
            workload,
            seed,
            scale,
            seconds,
            trace,
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu: cpu_model(),
            commit: git_commit(),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"scale\":{},\"seconds\":{},\"trace\":{},\
             \"nodes\":{NODES},\"threads_per_node\":{THREADS_PER_NODE},\"nproc\":{},\
             \"cpu\":\"{}\",\"commit\":\"{}\"}}",
            self.workload.name(),
            self.seed,
            num(self.scale),
            num(self.seconds),
            u8::from(self.trace),
            self.nproc,
            escape(&self.cpu),
            escape(&self.commit)
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the benchmark was built from, read from the `.git`
/// directory beside it; "unknown" in a checkout without one.
fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
        None => Some(head.to_string()),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    pub provenance: Provenance,
    pub input_lines: u64,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Self-timed spans of the traced run, as JSON (trace pass only).
    pub spans_json: Option<String>,
    /// Extra human-readable lines (span table).
    pub notes: Vec<String>,
}

/// A finite number as JSON, with every digit Rust keeps.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The machine-readable result: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The full record kept on disk: provenance plus every metric's
    /// sample count, median and quartiles.
    pub fn record_json(&self) -> String {
        let mut out = format!(
            "{{\"provenance\":{},\"input_lines\":{},\"attempted\":{},\"failed\":{},\
             \"failed_frac\":{},\"correct\":{},\"metrics\":[",
            self.provenance.to_json(),
            self.input_lines,
            self.tally.attempted,
            self.tally.failed,
            num(self.tally.failed_frac()),
            self.correct()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"value\":{}",
                m.name,
                m.unit,
                num(m.value)
            );
            if let Some(s) = Summary::of(&m.samples) {
                let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
                let _ = write!(
                    out,
                    ",\"n\":{},\"q1\":{},\"median\":{},\"q3\":{},\"samples\":[{}]",
                    s.n,
                    num(s.q1),
                    num(s.median),
                    num(s.q3),
                    samples.join(",")
                );
            }
            if let Some(why) = m.na {
                let _ = write!(out, ",\"na\":\"{}\"", escape(why));
            }
            out.push('}');
        }
        out.push(']');
        if let Some(spans) = &self.spans_json {
            let _ = write!(out, ",\"spans\":{spans}");
        }
        out.push('}');
        out
    }

    /// Lines for a person, printed before the result line.
    pub fn human_lines(&self) -> Vec<String> {
        let p = &self.provenance;
        let mut lines = vec![
            format!(
                "# hamrbench {} seed={} trace={} shape={NODES}x{THREADS_PER_NODE} scale={} \
                 input_lines={}",
                p.workload.name(),
                p.seed,
                u8::from(p.trace),
                p.scale,
                self.input_lines
            ),
            format!(
                "# host: nproc={} cpu=\"{}\" commit={}",
                p.nproc, p.cpu, p.commit
            ),
        ];
        for m in &self.metrics {
            let mut line = format!("{:<34} {:>16} {}", m.name, num(m.value), m.unit);
            if let Some(s) = Summary::of(&m.samples) {
                let _ = write!(
                    line,
                    "  (n={} q1={:.6} median={:.6} q3={:.6})",
                    s.n, s.q1, s.median, s.q3
                );
            }
            if let Some(why) = m.na {
                let _ = write!(line, "  n/a: {why}");
            }
            lines.push(line);
        }
        lines.push(format!(
            "{:<34} {:>16} ratio  ({} failed of {} attempted)",
            "failed_frac",
            num(self.tally.failed_frac()),
            self.tally.failed,
            self.tally.attempted
        ));
        for note in &self.tally.notes {
            lines.push(format!("# failed: {note}"));
        }
        lines.extend(self.notes.iter().cloned());
        lines
    }
}

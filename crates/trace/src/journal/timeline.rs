//! Offline run reconstruction from a journal directory.
//!
//! [`Timeline::load`] walks the journal records in order and folds
//! them into per-job spans: when the job started, whether (and how) it
//! ended, how many bytes it shuffled, what the resident cache served,
//! the p99 task latency for its epoch, which watchdog incidents and
//! stuck edges it left behind, and which alerts fired while it ran. A
//! `JobStart` with no matching `JobEnd` is a run killed mid-flight —
//! exactly the case the journal exists for.
//!
//! Each span also keeps the evidence a diagnosis needs — the custody
//! ledger, the newest journaled trace events, the error text and the
//! gauges at the job's epoch — so [`JobSpan::flight_record`] rebuilds
//! the same [`FlightRecord`] the live `/doctor` endpoint serves.
//!
//! `hamr timeline <dir>` renders this; `hamr timeline --diff a b`
//! compares two reconstructions job by job; `hamr doctor <dir> [job]`
//! renders one span's flight record.

use super::{read_journal, JournalRecord};
use crate::audit::{
    AuditReport, FlightRecord, GaugeValue, RecordedEvent, WatchdogTrip, EVENT_TAIL,
};
use crate::hist::bucket_upper;
use crate::json;
use crate::registry::{HistSample, SampleValue, Snapshot};
use crate::stats::StatsSnapshot;
use crate::WatchdogClass;
use std::collections::VecDeque;
use std::path::Path;

/// One alert transition (fired or resolved), with the job that was
/// open when it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertNote {
    pub rule: String,
    pub firing: bool,
    pub t_us: u64,
    pub value: f64,
    pub threshold: f64,
    pub detail: String,
    pub job: Option<String>,
}

/// One job's reconstructed span.
#[derive(Debug, Clone, Default)]
pub struct JobSpan {
    pub job: String,
    /// From `JobStart`; for a span opened without one, the engine
    /// label of its epoch's gauges, else `unknown`.
    pub engine: String,
    /// `None` when retention deleted the job's `JobStart`: the span was
    /// opened by the job's first surviving record instead.
    pub start_us: Option<u64>,
    /// `None` when the journal ends before the job did — the process
    /// was killed mid-job.
    pub end_us: Option<u64>,
    pub ok: Option<bool>,
    /// The failed run's error text, from `JobEnd`.
    pub error: Option<String>,
    pub elapsed_us: Option<u64>,
    pub shuffled_bytes: Option<u64>,
    /// Resident-cache hits served during this job's epoch delta.
    pub cache_hits: u64,
    /// Flow-control stall time accumulated during this job's epoch.
    pub stall_us: u64,
    /// p99 task latency over this job's epoch delta histogram.
    pub task_p99_us: Option<u64>,
    /// The newest [`EVENT_TAIL`] trace events journaled while this job
    /// was open (ring-overflow tap plus the post-mortem tail of a
    /// failed run), oldest first.
    pub event_tail: VecDeque<RecordedEvent>,
    /// Live gauges of the job's engine at its epoch snapshot.
    pub gauges: Vec<GaugeValue>,
    /// Watchdog incidents journaled while the job ran, in order.
    pub incidents: Vec<WatchdogTrip>,
    /// The custody ledger from the job's audit epoch.
    pub audit: Option<AuditReport>,
    /// Alert *firings* (not resolutions) while this job was open.
    pub alerts_fired: u64,
    /// The job's data-plane statistics (last `Stats` record wins):
    /// per-edge sketches and sampled lineage, read by `hamr explain`.
    pub stats: Option<StatsSnapshot>,
}

impl JobSpan {
    /// Wall time: explicit elapsed from `JobEnd`, else span width.
    pub fn wall_us(&self) -> Option<u64> {
        self.elapsed_us.or_else(|| {
            self.end_us
                .zip(self.start_us)
                .map(|(e, s)| e.saturating_sub(s))
        })
    }

    /// The job's flight record, rebuilt from the journal: the latest
    /// watchdog incident as the trip, the error text, the event tail,
    /// the custody ledger and the epoch gauges. Events the flight
    /// ring overflowed were journaled by its tap, so none count as
    /// dropped.
    pub fn flight_record(&self) -> FlightRecord {
        FlightRecord {
            job: self.job.clone(),
            engine: self.engine.clone(),
            trip: self.incidents.last().cloned(),
            error: self.error.clone(),
            events: self.event_tail.iter().cloned().collect(),
            dropped_events: 0,
            audit: self
                .audit
                .clone()
                .unwrap_or_else(|| crate::audit::Audit::disabled().report()),
            gauges: self.gauges.clone(),
        }
    }
}

/// The reconstruction of everything a journal directory recorded.
#[derive(Debug, Default)]
pub struct Timeline {
    pub jobs: Vec<JobSpan>,
    pub alerts: Vec<AlertNote>,
    /// Total records decoded across all merged journals.
    pub records: usize,
    pub truncated_frames: u64,
    pub unknown_records: u64,
    /// Journal directories merged (an `auto` parent holds one per
    /// cluster).
    pub sources: usize,
}

/// p-th quantile of a histogram sample, mirroring
/// [`LatencyHistogram::quantile_us`](crate::LatencyHistogram):
/// smallest bucket whose cumulative count reaches `ceil(q * count)`.
pub fn hist_quantile_us(h: &HistSample, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let target = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut cum = 0u64;
    for (b, &n) in h.buckets.iter().enumerate() {
        cum += n;
        if cum >= target {
            return bucket_upper(b);
        }
    }
    bucket_upper(h.buckets.len().saturating_sub(1))
}

/// Sum every `flowlet_task_latency_us` series in a snapshot into one
/// aggregate histogram.
fn aggregate_latency(snap: &Snapshot) -> Option<HistSample> {
    let mut agg: Option<HistSample> = None;
    for s in &snap.series {
        if s.name != "flowlet_task_latency_us" {
            continue;
        }
        if let SampleValue::Histogram(h) = &s.value {
            let agg = agg.get_or_insert_with(|| HistSample {
                count: 0,
                sum_us: 0,
                buckets: vec![0; h.buckets.len()],
            });
            agg.count += h.count;
            agg.sum_us += h.sum_us;
            if agg.buckets.len() < h.buckets.len() {
                agg.buckets.resize(h.buckets.len(), 0);
            }
            for (i, n) in h.buckets.iter().enumerate() {
                agg.buckets[i] += n;
            }
        }
    }
    agg
}

/// The span a record naming `job` belongs to: the open span if it is
/// this job's, else its newest unclosed one (every such record comes
/// before the job's `JobEnd`). With none, retention deleted the job's
/// `JobStart` while it ran: open a span with an unknown start rather
/// than drop a failed run's verdict, trip or ledger.
fn span_for(jobs: &mut Vec<JobSpan>, open: &mut Option<usize>, job: &str) -> usize {
    if let Some(i) = open.filter(|&i| jobs[i].job == job) {
        return i;
    }
    if let Some(i) = jobs
        .iter()
        .rposition(|s| s.job == job && s.end_us.is_none())
    {
        return i;
    }
    jobs.push(JobSpan {
        job: job.to_string(),
        engine: "unknown".into(),
        ..JobSpan::default()
    });
    let i = jobs.len() - 1;
    open.get_or_insert(i);
    i
}

impl Timeline {
    /// Load a journal directory. If `dir` itself has no segments but
    /// its immediate subdirectories do (the `HAMR_JOURNAL=auto`
    /// layout, one subjournal per cluster), every subjournal is loaded
    /// and merged in name order.
    pub fn load(dir: &Path) -> Result<Timeline, String> {
        let has_data = |r: &super::JournalRead| !r.records.is_empty() || r.truncated_frames > 0;
        let direct = read_journal(dir)?;
        let reads = if has_data(&direct) {
            vec![direct]
        } else {
            let mut subs: Vec<_> = std::fs::read_dir(dir)
                .map_err(|e| format!("read {}: {e}", dir.display()))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            subs.sort();
            subs.iter()
                .filter_map(|sub| read_journal(sub).ok())
                .filter(has_data)
                .collect()
        };
        if reads.is_empty() {
            return Err(format!(
                "no journal segments under {} (or its subdirectories)",
                dir.display()
            ));
        }
        let truncated_frames = reads.iter().map(|r| r.truncated_frames).sum();
        let unknown_records = reads.iter().map(|r| r.unknown_records).sum();
        let sources = reads.len();
        let records: Vec<JournalRecord> = reads.into_iter().flat_map(|r| r.records).collect();
        Ok(Timeline {
            truncated_frames,
            unknown_records,
            sources,
            ..Timeline::from_records(&records)
        })
    }

    /// Fold an ordered record stream into spans.
    pub fn from_records(records: &[JournalRecord]) -> Timeline {
        let mut t = Timeline {
            records: records.len(),
            ..Timeline::default()
        };
        let mut open: Option<usize> = None;
        let mut prev_epoch: Option<Snapshot> = None;
        for rec in records {
            match rec {
                JournalRecord::JobStart { job, engine, t_us } => {
                    t.jobs.push(JobSpan {
                        job: job.clone(),
                        engine: engine.clone(),
                        start_us: Some(*t_us),
                        ..JobSpan::default()
                    });
                    open = Some(t.jobs.len() - 1);
                }
                JournalRecord::JobEnd {
                    job,
                    ok,
                    t_us,
                    elapsed_us,
                    shuffled_bytes,
                    error,
                } => {
                    let i = span_for(&mut t.jobs, &mut open, job);
                    let span = &mut t.jobs[i];
                    span.end_us = Some(*t_us);
                    span.ok = Some(*ok);
                    span.error = error.clone();
                    span.elapsed_us = Some(*elapsed_us);
                    if span.shuffled_bytes.is_none() {
                        span.shuffled_bytes = Some(*shuffled_bytes);
                    }
                    if open == Some(i) {
                        open = None;
                    }
                }
                JournalRecord::Event(ev) => {
                    if let Some(i) = open {
                        let tail = &mut t.jobs[i].event_tail;
                        if tail.len() == EVENT_TAIL {
                            tail.pop_front();
                        }
                        tail.push_back(ev.clone());
                    }
                }
                JournalRecord::Epoch(snap) => {
                    // Epoch sequence numbers rise within one registry.
                    // One that does not comes from a fresh registry — a
                    // later cluster reopening the directory, or the next
                    // subjournal of an `auto` merge — and is its own
                    // delta.
                    let delta = match &prev_epoch {
                        Some(prev) if snap.seq > prev.seq => snap.delta(prev),
                        _ => snap.clone(),
                    };
                    // The snapshot is labeled with its job's name.
                    let i = match open {
                        Some(i) => i,
                        None => span_for(&mut t.jobs, &mut open, &snap.label),
                    };
                    let span = &mut t.jobs[i];
                    if span.start_us.is_none() {
                        // A span opened without its `JobStart` takes the
                        // engine its gauges are labeled with.
                        if let Some(engine) =
                            snap.series.iter().find_map(|s| s.labels.engine.clone())
                        {
                            span.engine = engine;
                        }
                    }
                    span.gauges = snap.engine_gauges(&span.engine);
                    span.shuffled_bytes = Some(delta.counter_total("shuffled_bytes_total"));
                    span.cache_hits = delta.counter_total("hamr_cache_hits_total");
                    span.stall_us = delta.counter_total("flowlet_stall_us_total");
                    if let Some(h) = aggregate_latency(&delta) {
                        if h.count > 0 {
                            span.task_p99_us = Some(hist_quantile_us(&h, 0.99));
                        }
                    }
                    prev_epoch = Some(snap.clone());
                }
                JournalRecord::AuditEpoch { job, report_json } => {
                    let report = json::parse(report_json)
                        .and_then(|v| AuditReport::from_json(&v))
                        .ok();
                    let i = span_for(&mut t.jobs, &mut open, job);
                    t.jobs[i].audit = report;
                }
                JournalRecord::Incident {
                    job,
                    class,
                    epoch,
                    detail,
                } => {
                    if let Some(class) = WatchdogClass::from_name(class) {
                        let i = span_for(&mut t.jobs, &mut open, job);
                        t.jobs[i].incidents.push(WatchdogTrip {
                            class,
                            epoch: *epoch,
                            detail: detail.clone(),
                        });
                    }
                }
                JournalRecord::Alert {
                    rule,
                    firing,
                    t_us,
                    value,
                    threshold,
                    detail,
                } => {
                    let job = open.map(|i| t.jobs[i].job.clone());
                    if *firing {
                        if let Some(i) = open {
                            t.jobs[i].alerts_fired += 1;
                        }
                    }
                    t.alerts.push(AlertNote {
                        rule: rule.clone(),
                        firing: *firing,
                        t_us: *t_us,
                        value: *value,
                        threshold: *threshold,
                        detail: detail.clone(),
                        job,
                    });
                }
                JournalRecord::Stats(snap) => {
                    let i = span_for(&mut t.jobs, &mut open, &snap.job);
                    t.jobs[i].stats = Some(snap.clone());
                }
            }
        }
        t
    }

    /// The span `hamr doctor` diagnoses: the newest job named `job`,
    /// or with no name the newest job that failed or raised a
    /// watchdog incident.
    pub fn doctor_span(&self, job: Option<&str>) -> Option<&JobSpan> {
        self.jobs.iter().rev().find(|s| match job {
            Some(name) => s.job == name,
            None => s.ok == Some(false) || !s.incidents.is_empty(),
        })
    }

    /// Jobs that never saw a `JobEnd` — killed mid-flight.
    pub fn unfinished(&self) -> Vec<&JobSpan> {
        self.jobs.iter().filter(|s| s.end_us.is_none()).collect()
    }

    /// Render the reconstruction as an operator-facing report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "journal: {} job(s), {} record(s), {} source(s)",
            self.jobs.len(),
            self.records,
            self.sources
        ));
        if self.truncated_frames > 0 {
            out.push_str(&format!(
                " — {} truncated frame(s) recovered past",
                self.truncated_frames
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<28} {:>9} {:>12} {:>10} {:>10} {:>9}  status\n",
            "job", "wall ms", "shuffled B", "cache hit", "stall ms", "p99 us"
        ));
        for span in &self.jobs {
            let wall = span
                .wall_us()
                .map(|us| format!("{:.1}", us as f64 / 1000.0))
                .unwrap_or_else(|| "?".into());
            let shuffled = span
                .shuffled_bytes
                .map(|b| b.to_string())
                .unwrap_or_else(|| "?".into());
            let p99 = span
                .task_p99_us
                .map(|us| us.to_string())
                .unwrap_or_else(|| "-".into());
            let status = match span.ok {
                Some(true) => "ok".to_string(),
                Some(false) => "FAILED".to_string(),
                None => "KILLED MID-FLIGHT".to_string(),
            };
            out.push_str(&format!(
                "{:<28} {:>9} {:>12} {:>10} {:>10.1} {:>9}  {}\n",
                span.job,
                wall,
                shuffled,
                span.cache_hits,
                span.stall_us as f64 / 1000.0,
                p99,
                status
            ));
            for inc in &span.incidents {
                out.push_str(&format!(
                    "    incident: {} at watchdog epoch {} — {}\n",
                    inc.class.name(),
                    inc.epoch,
                    inc.detail
                ));
            }
            for (row, gap) in span.audit.iter().flat_map(AuditReport::stuck_rows) {
                out.push_str(&format!(
                    "    stuck: edge {} -> node {} ({gap} bins in flight)\n",
                    row.edge, row.dst
                ));
            }
            // Each job's StatsSnapshot is built from a fresh per-job
            // plane, so these per-edge counts are already deltas.
            for e in span.stats.iter().flat_map(|s| &s.edges) {
                out.push_str(&format!(
                    "    keys: edge {}: {} records, ~{} distinct keys, hot {:.0}%, p99 val {}B{}\n",
                    e.edge,
                    e.records,
                    e.distinct,
                    e.hot_share * 100.0,
                    e.p99,
                    if e.shuffle { " [shuffle]" } else { "" }
                ));
            }
        }
        let firings: Vec<&AlertNote> = self.alerts.iter().filter(|a| a.firing).collect();
        if firings.is_empty() {
            out.push_str("alerts: none fired\n");
        } else {
            out.push_str(&format!("alerts: {} firing transition(s)\n", firings.len()));
            for a in &firings {
                out.push_str(&format!(
                    "    ALERT {} during {}: {} (value {:.1}, threshold {:.1})\n",
                    a.rule,
                    a.job.as_deref().unwrap_or("<between jobs>"),
                    a.detail,
                    a.value,
                    a.threshold
                ));
            }
        }
        for span in self.unfinished() {
            out.push_str(&format!(
                "final state: job {} was open when the journal ends — last completed epoch is the span above it\n",
                span.job
            ));
        }
        out
    }

    /// Compare two reconstructions job by job (matched by name, first
    /// occurrence).
    pub fn render_diff(a: &Timeline, b: &Timeline) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "diff: {} job(s) vs {} job(s)\n",
            a.jobs.len(),
            b.jobs.len()
        ));
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>7} {:>13} {:>13}  status a/b\n",
            "job", "wall a ms", "wall b ms", "ratio", "shuffled a", "shuffled b"
        ));
        for sa in &a.jobs {
            let sb = b.jobs.iter().find(|s| s.job == sa.job);
            match sb {
                Some(sb) => {
                    let wa = sa.wall_us().unwrap_or(0) as f64 / 1000.0;
                    let wb = sb.wall_us().unwrap_or(0) as f64 / 1000.0;
                    let ratio = if wb > 0.0 { wa / wb } else { f64::NAN };
                    out.push_str(&format!(
                        "{:<28} {:>10.1} {:>10.1} {:>7.2} {:>13} {:>13}  {}/{}\n",
                        sa.job,
                        wa,
                        wb,
                        ratio,
                        sa.shuffled_bytes.unwrap_or(0),
                        sb.shuffled_bytes.unwrap_or(0),
                        status_ch(sa),
                        status_ch(sb)
                    ));
                }
                None => out.push_str(&format!("{:<28} only in first journal\n", sa.job)),
            }
        }
        for sb in &b.jobs {
            if !a.jobs.iter().any(|s| s.job == sb.job) {
                out.push_str(&format!("{:<28} only in second journal\n", sb.job));
            }
        }
        let fa = a.alerts.iter().filter(|x| x.firing).count();
        let fb = b.alerts.iter().filter(|x| x.firing).count();
        out.push_str(&format!("alert firings: {fa} vs {fb}\n"));
        out
    }
}

fn status_ch(s: &JobSpan) -> &'static str {
    match s.ok {
        Some(true) => "ok",
        Some(false) => "FAIL",
        None => "KILLED",
    }
}

#[cfg(test)]
mod tests {
    use super::super::JournalRecord;
    use super::*;
    use crate::audit::{Audit, AuditStage, RecordedEvent};
    use crate::registry::{Labels, SeriesSample};

    fn snap(label: &str, seq: u64, shuffled: u64, lat_bucket: usize, lat_n: u64) -> Snapshot {
        let mut buckets = vec![0u64; 64];
        buckets[lat_bucket] = lat_n;
        Snapshot {
            label: label.into(),
            seq,
            series: vec![
                SeriesSample {
                    name: "shuffled_bytes_total".into(),
                    labels: Labels::new().engine("hamr"),
                    value: SampleValue::Counter(shuffled),
                },
                SeriesSample {
                    name: "flowlet_task_latency_us".into(),
                    labels: Labels::new().engine("hamr").flowlet(0),
                    value: SampleValue::Histogram(HistSample {
                        count: lat_n,
                        sum_us: lat_n * 100,
                        buckets,
                    }),
                },
            ],
        }
    }

    fn start(job: &str, t_us: u64) -> JournalRecord {
        JournalRecord::JobStart {
            job: job.into(),
            engine: "hamr".into(),
            t_us,
        }
    }

    fn end(job: &str, t_us: u64, elapsed_us: u64, shuffled_bytes: u64) -> JournalRecord {
        JournalRecord::JobEnd {
            job: job.into(),
            ok: true,
            t_us,
            elapsed_us,
            shuffled_bytes,
            error: None,
        }
    }

    fn event(t_us: u64) -> JournalRecord {
        JournalRecord::Event(RecordedEvent {
            t_us,
            node: 0,
            worker: 0,
            name: "bin-shipped".into(),
            args: vec![],
        })
    }

    fn incident(job: &str) -> JournalRecord {
        JournalRecord::Incident {
            job: job.into(),
            class: "backpressure".into(),
            epoch: 4,
            detail: "deferred>0".into(),
        }
    }

    #[test]
    fn reconstructs_completed_and_killed_spans() {
        let records = vec![
            start("wc", 0),
            JournalRecord::Epoch(snap("wc", 1, 1000, 7, 10)),
            end("wc", 5000, 5000, 1000),
            start("pr", 6000),
            event(6500),
            incident("pr"),
            JournalRecord::Alert {
                rule: "queue-depth-high-water".into(),
                firing: true,
                t_us: 6600,
                value: 8.0,
                threshold: 1.0,
                detail: "deferred_bins=8".into(),
            },
        ];
        let t = Timeline::from_records(&records);
        assert_eq!(t.jobs.len(), 2);
        assert_eq!(t.jobs[0].ok, Some(true));
        assert_eq!(t.jobs[0].shuffled_bytes, Some(1000));
        assert_eq!(t.jobs[0].task_p99_us, Some(127), "p99 = upper of bucket 7");
        assert_eq!(t.jobs[1].ok, None, "killed mid-flight");
        assert_eq!(t.jobs[1].event_tail.len(), 1);
        assert_eq!(t.jobs[1].incidents.len(), 1);
        assert_eq!(t.jobs[1].alerts_fired, 1);
        assert_eq!(t.unfinished().len(), 1);
        let rendered = t.render();
        assert!(rendered.contains("wc"));
        assert!(rendered.contains("KILLED MID-FLIGHT"));
        assert!(rendered.contains("backpressure"));
        assert!(rendered.contains("queue-depth-high-water"));
    }

    #[test]
    fn epoch_deltas_are_per_job_not_cumulative() {
        let records = vec![
            start("a", 0),
            JournalRecord::Epoch(snap("a", 1, 1000, 5, 4)),
            end("a", 100, 100, 1000),
            start("b", 200),
            // Cumulative counter reads 1500: job b shuffled only 500.
            JournalRecord::Epoch(snap("b", 2, 1500, 5, 8)),
            end("b", 300, 100, 500),
        ];
        let t = Timeline::from_records(&records);
        assert_eq!(t.jobs[0].shuffled_bytes, Some(1000));
        assert_eq!(t.jobs[1].shuffled_bytes, Some(500), "delta, not cumulative");
    }

    #[test]
    fn an_epoch_from_a_fresh_registry_is_its_own_delta() {
        // Cluster A's registry shuffles 100 000 B over two epochs; then
        // cluster B reopens the directory with a fresh registry whose
        // first epoch (seq 0) reads 1 000 B.
        let records = vec![
            start("a1", 0),
            JournalRecord::Epoch(snap("a1", 0, 40_000, 5, 4)),
            end("a1", 100, 100, 0),
            start("a2", 200),
            JournalRecord::Epoch(snap("a2", 1, 100_000, 5, 8)),
            end("a2", 300, 100, 0),
            start("b1", 400),
            JournalRecord::Epoch(snap("b1", 0, 1_000, 6, 2)),
            end("b1", 500, 100, 0),
        ];
        let t = Timeline::from_records(&records);
        assert_eq!(t.jobs[1].shuffled_bytes, Some(60_000));
        assert_eq!(t.jobs[2].shuffled_bytes, Some(1_000), "read whole");
        assert_eq!(t.jobs[2].task_p99_us, Some(bucket_upper(6)));
    }

    #[test]
    fn flight_record_rebuilt_from_a_failed_span() {
        let audit = Audit::new(2, 2);
        audit.record(AuditStage::Emit, 1, 1, 4, 128);
        let mut epoch = snap("wc", 0, 10, 5, 1);
        epoch.series.push(SeriesSample {
            name: "deferred_bins".into(),
            labels: Labels::new().engine("hamr").node(2),
            value: SampleValue::Gauge(9),
        });
        let mut records = vec![start("wc", 0)];
        records.extend((0..EVENT_TAIL as u64 + 5).map(event));
        records.extend([
            incident("wc"),
            event(999),
            JournalRecord::Epoch(epoch),
            JournalRecord::AuditEpoch {
                job: "wc".into(),
                report_json: audit.report().to_json(),
            },
            JournalRecord::JobEnd {
                job: "wc".into(),
                ok: false,
                t_us: 10,
                elapsed_us: 10,
                shuffled_bytes: 10,
                error: Some("aborted".into()),
            },
            start("clean", 20),
        ]);
        // Retention may delete the segments holding the JobStart and
        // the early events while the job runs: the span then opens at
        // the incident, with an unknown start, and keeps every verdict.
        let rotated = &records[EVENT_TAIL + 6..];
        for (records, start_us, tail, oldest) in [
            (&records[..], Some(0), EVENT_TAIL, 6),
            (rotated, None, 1, 999),
        ] {
            let t = Timeline::from_records(records);
            assert_eq!(t.doctor_span(None).map(|s| s.job.as_str()), Some("wc"));
            assert!(t.doctor_span(Some("nope")).is_none());
            let span = t.doctor_span(Some("wc")).expect("span");
            assert_eq!((span.start_us, span.wall_us()), (start_us, Some(10)));
            assert_eq!(span.engine, "hamr", "rotated: from the epoch's labels");
            let record = span.flight_record();
            let trip = record.trip.as_ref().expect("incident becomes the trip");
            assert_eq!(trip.class, WatchdogClass::Backpressure);
            assert_eq!(record.error.as_deref(), Some("aborted"));
            assert_eq!(record.events.len(), tail);
            assert_eq!(record.events[0].t_us, oldest, "oldest kept event");
            let findings = record.diagnose();
            assert!(findings[0].contains("backpressure"), "{findings:?}");
            assert!(findings[1].contains("edge 1 -> node 1"), "{findings:?}");
            assert!(
                findings.contains(&"node 2 still holds 9 bins deferred by flow control".into()),
                "epoch gauge hot spot: {findings:?}"
            );
        }
    }

    #[test]
    fn diff_pairs_jobs_by_name() {
        let a = Timeline::from_records(&[start("wc", 0), end("wc", 1000, 1000, 10)]);
        let b = Timeline::from_records(&[
            start("wc", 0),
            end("wc", 2000, 2000, 20),
            start("extra", 3000),
        ]);
        let diff = Timeline::render_diff(&a, &b);
        assert!(diff.contains("wc"));
        assert!(diff.contains("0.50"), "wall ratio 1000/2000: {diff}");
        assert!(diff.contains("only in second journal"));
    }

    #[test]
    fn hist_quantile_matches_latency_histogram_convention() {
        let h = HistSample {
            count: 100,
            sum_us: 0,
            buckets: {
                let mut b = vec![0u64; 64];
                b[3] = 50;
                b[10] = 49;
                b[20] = 1;
                b
            },
        };
        assert_eq!(hist_quantile_us(&h, 0.5), bucket_upper(3));
        assert_eq!(hist_quantile_us(&h, 0.99), bucket_upper(10));
        assert_eq!(hist_quantile_us(&h, 1.0), bucket_upper(20));
        assert_eq!(
            hist_quantile_us(
                &HistSample {
                    count: 0,
                    sum_us: 0,
                    buckets: vec![0; 64]
                },
                0.99
            ),
            0
        );
    }
}

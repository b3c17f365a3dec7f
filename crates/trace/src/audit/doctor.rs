//! Post-mortem flight recorder and the `doctor` diagnosis it feeds.
//!
//! When the watchdog trips or a supervised job fails, the cluster dumps
//! a bounded black-box snapshot — the last-K trace events, the custody
//! ledger, and every live gauge — to `doctor_<job>.json`. The analysis
//! lives here (not in the `tracedump` binary) so tests and other tools
//! can diagnose a record without shelling out.

use super::{AuditReport, AuditStage};
use crate::json::{self, escape, Json};
use crate::{EventKind, TraceEvent, WatchdogClass};

/// One registry gauge at dump time: the series name with its labels
/// (e.g. `queue_depth{node="0",flowlet="2"}`), the owning node
/// (`u32::MAX` for cluster-wide gauges), and the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeValue {
    pub name: String,
    pub node: u32,
    pub value: i64,
}

impl GaugeValue {
    /// The metric name without its labels (`queue_depth`).
    pub fn metric(&self) -> &str {
        self.name.split('{').next().unwrap_or(&self.name)
    }
}

/// A trace event flattened for the black box: the structured
/// [`EventKind`] becomes a name plus numeric args, which is all the
/// doctor needs to print a tail and is stable to parse back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    pub t_us: u64,
    pub node: u32,
    pub worker: u32,
    pub name: String,
    pub args: Vec<(String, u64)>,
}

impl RecordedEvent {
    /// Flatten a live [`TraceEvent`](crate::TraceEvent) into the
    /// recorded form. Keys are sorted so round-trips (JSON args parse
    /// back out of an ordered map; the journal's binary codec) are
    /// identities.
    pub fn from_event(ev: &crate::TraceEvent) -> RecordedEvent {
        let (name, args) = event_fields(&ev.kind);
        let mut args: Vec<(String, u64)> =
            args.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        args.sort();
        RecordedEvent {
            t_us: ev.t_us,
            node: ev.node,
            worker: ev.worker,
            name: name.to_string(),
            args,
        }
    }
}

/// Why the watchdog fired, as recorded in the black box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogTrip {
    pub class: WatchdogClass,
    pub epoch: u64,
    pub detail: String,
}

/// The bounded post-mortem snapshot written to `doctor_<job>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    pub job: String,
    pub engine: String,
    pub trip: Option<WatchdogTrip>,
    pub error: Option<String>,
    /// Last-K events from the trace ring, oldest first.
    pub events: Vec<RecordedEvent>,
    /// Events the trace ring overflowed and lost before capture — a
    /// nonzero value means `events` has gaps, which matters when a
    /// diagnosis hinges on an event being absent.
    pub dropped_events: u64,
    pub audit: AuditReport,
    pub gauges: Vec<GaugeValue>,
}

/// Flatten an [`EventKind`] into a stable name + numeric args.
pub fn event_fields(kind: &EventKind) -> (&'static str, Vec<(&'static str, u64)>) {
    match kind {
        EventKind::TaskStart { flowlet, span, .. } => (
            "task-start",
            vec![("flowlet", *flowlet as u64), ("span", *span)],
        ),
        EventKind::TaskEnd {
            flowlet,
            records_in,
            records_out,
            ..
        } => (
            "task-end",
            vec![
                ("flowlet", *flowlet as u64),
                ("records_in", *records_in),
                ("records_out", *records_out),
            ],
        ),
        EventKind::BinEmitted {
            flowlet,
            edge,
            dst,
            records,
            ..
        } => (
            "bin-emitted",
            vec![
                ("flowlet", *flowlet as u64),
                ("edge", *edge as u64),
                ("dst", *dst as u64),
                ("records", *records as u64),
            ],
        ),
        EventKind::BinShipped {
            flowlet,
            edge,
            dst,
            bytes,
            ..
        } => (
            "bin-shipped",
            vec![
                ("flowlet", *flowlet as u64),
                ("edge", *edge as u64),
                ("dst", *dst as u64),
                ("bytes", *bytes),
            ],
        ),
        EventKind::BinIngress {
            flowlet,
            edge,
            from,
            ..
        } => (
            "bin-ingress",
            vec![
                ("flowlet", *flowlet as u64),
                ("edge", *edge as u64),
                ("from", *from as u64),
            ],
        ),
        EventKind::FlowControlStall {
            flowlet, edge, dst, ..
        } => (
            "flow-stall",
            vec![
                ("flowlet", *flowlet as u64),
                ("edge", *edge as u64),
                ("dst", *dst as u64),
            ],
        ),
        EventKind::FlowControlResume {
            flowlet,
            edge,
            dst,
            stalled_us,
            ..
        } => (
            "flow-resume",
            vec![
                ("flowlet", *flowlet as u64),
                ("edge", *edge as u64),
                ("dst", *dst as u64),
                ("stalled_us", *stalled_us),
            ],
        ),
        EventKind::SpillStart { flowlet } => ("spill-start", vec![("flowlet", *flowlet as u64)]),
        EventKind::SpillEnd { flowlet, bytes } => (
            "spill-end",
            vec![("flowlet", *flowlet as u64), ("bytes", *bytes)],
        ),
        EventKind::NetSend { to, bytes } => {
            ("net-send", vec![("to", *to as u64), ("bytes", *bytes)])
        }
        EventKind::NetDeliver { from, bytes } => (
            "net-deliver",
            vec![("from", *from as u64), ("bytes", *bytes)],
        ),
        EventKind::ReduceFire { flowlet, shards } => (
            "reduce-fire",
            vec![("flowlet", *flowlet as u64), ("shards", *shards as u64)],
        ),
        EventKind::TaskStolen {
            thief,
            victim,
            flowlet,
        } => (
            "task-stolen",
            vec![
                ("thief", *thief as u64),
                ("victim", *victim as u64),
                ("flowlet", *flowlet as u64),
            ],
        ),
        EventKind::WorkerParked => ("worker-parked", vec![]),
        EventKind::WorkerUnparked { parked_us } => {
            ("worker-unparked", vec![("parked_us", *parked_us)])
        }
        EventKind::DiskRead { bytes } => ("disk-read", vec![("bytes", *bytes)]),
        EventKind::DiskWrite { bytes } => ("disk-write", vec![("bytes", *bytes)]),
        EventKind::Watchdog { class, epoch } => (
            match class {
                WatchdogClass::Backpressure => "watchdog-backpressure",
                WatchdogClass::Hang => "watchdog-hang",
                WatchdogClass::Straggler => "watchdog-straggler",
            },
            vec![("epoch", *epoch)],
        ),
    }
}

impl FlightRecord {
    /// Build a record from live run state, keeping only the newest
    /// `keep_last` trace events.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        job: impl Into<String>,
        engine: impl Into<String>,
        trip: Option<WatchdogTrip>,
        error: Option<String>,
        events: &[TraceEvent],
        keep_last: usize,
        dropped_events: u64,
        audit: AuditReport,
        gauges: Vec<GaugeValue>,
    ) -> Self {
        let skip = events.len().saturating_sub(keep_last);
        FlightRecord {
            job: job.into(),
            engine: engine.into(),
            trip,
            error,
            events: events[skip..]
                .iter()
                .map(RecordedEvent::from_event)
                .collect(),
            dropped_events,
            audit,
            gauges,
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"job\":\"{}\"", escape(&self.job)));
        out.push_str(&format!(",\"engine\":\"{}\"", escape(&self.engine)));
        match &self.trip {
            Some(t) => out.push_str(&format!(
                ",\"trip\":{{\"class\":\"{}\",\"epoch\":{},\"detail\":\"{}\"}}",
                t.class.name(),
                t.epoch,
                escape(&t.detail)
            )),
            None => out.push_str(",\"trip\":null"),
        }
        match &self.error {
            Some(e) => out.push_str(&format!(",\"error\":\"{}\"", escape(e))),
            None => out.push_str(",\"error\":null"),
        }
        out.push_str(",\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"t_us\":{},\"node\":{},\"worker\":{},\"name\":\"{}\",\"args\":{{",
                ev.t_us,
                ev.node,
                ev.worker,
                escape(&ev.name)
            ));
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", escape(k), v));
            }
            out.push_str("}}");
        }
        out.push_str(&format!("],\"dropped_events\":{}", self.dropped_events));
        out.push_str(",\"audit\":");
        out.push_str(&self.audit.to_json());
        out.push_str(",\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"node\":{},\"value\":{}}}",
                escape(&g.name),
                g.node,
                g.value
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parse a `doctor_<job>.json` document.
    pub fn parse(text: &str) -> Result<FlightRecord, String> {
        let v = json::parse(text)?;
        let s = |j: Option<&Json>, what: &str| {
            j.and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("flight record missing {what}"))
        };
        let trip = match v.get("trip") {
            None | Some(Json::Null) => None,
            Some(t) => {
                let class_name = s(t.get("class"), "trip.class")?;
                Some(WatchdogTrip {
                    class: WatchdogClass::from_name(&class_name)
                        .ok_or_else(|| format!("unknown watchdog class {class_name:?}"))?,
                    epoch: t
                        .get("epoch")
                        .and_then(Json::as_u64)
                        .ok_or("flight record missing trip.epoch")?,
                    detail: s(t.get("detail"), "trip.detail")?,
                })
            }
        };
        let error = match v.get("error") {
            None | Some(Json::Null) => None,
            Some(e) => Some(e.as_str().ok_or("error must be a string")?.to_string()),
        };
        let mut events = Vec::new();
        for ej in v
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("flight record missing events")?
        {
            let mut args = Vec::new();
            if let Some(Json::Obj(m)) = ej.get("args") {
                for (k, val) in m {
                    args.push((
                        k.clone(),
                        val.as_u64().ok_or("event arg must be a non-negative int")?,
                    ));
                }
            }
            events.push(RecordedEvent {
                t_us: ej
                    .get("t_us")
                    .and_then(Json::as_u64)
                    .ok_or("event missing t_us")?,
                node: ej
                    .get("node")
                    .and_then(Json::as_u64)
                    .ok_or("event missing node")? as u32,
                worker: ej
                    .get("worker")
                    .and_then(Json::as_u64)
                    .ok_or("event missing worker")? as u32,
                name: s(ej.get("name"), "event name")?,
                args,
            });
        }
        let mut gauges = Vec::new();
        for gj in v
            .get("gauges")
            .and_then(Json::as_arr)
            .ok_or("flight record missing gauges")?
        {
            gauges.push(GaugeValue {
                name: s(gj.get("name"), "gauge name")?,
                node: gj
                    .get("node")
                    .and_then(Json::as_u64)
                    .ok_or("gauge missing node")? as u32,
                value: gj
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("gauge missing value")? as i64,
            });
        }
        Ok(FlightRecord {
            job: s(v.get("job"), "job")?,
            engine: s(v.get("engine"), "engine")?,
            trip,
            error,
            events,
            // Absent in records written before drop accounting existed.
            dropped_events: v.get("dropped_events").and_then(Json::as_u64).unwrap_or(0),
            audit: AuditReport::from_json(v.get("audit").ok_or("flight record missing audit")?)?,
            gauges,
        })
    }

    /// Ranked findings, most damning first. Each is one plain sentence.
    pub fn diagnose(&self) -> Vec<String> {
        let mut findings = Vec::new();
        if let Some(t) = &self.trip {
            findings.push(format!(
                "watchdog tripped at epoch {}: {} — {}",
                t.epoch,
                t.class.name(),
                t.detail
            ));
        }
        // Custody gaps: bins that entered an edge but never reached a
        // consuming task, ranked by gap size.
        for (row, gap) in self.audit.stuck_rows().into_iter().take(5) {
            let emit = row.stage(AuditStage::Emit);
            let ship = row.stage(AuditStage::Ship);
            let deliver = row.stage(AuditStage::Deliver);
            let consume = row.stage(AuditStage::Consume);
            let stuck_at = if emit.bins > ship.bins {
                "stuck in flow control (emitted, never shipped)"
            } else if ship.bins > deliver.bins {
                "lost in the fabric (shipped, never delivered)"
            } else {
                "delivered but never consumed"
            };
            findings.push(format!(
                "edge {} -> node {}: {} of {} bins {} (emit={} ship={} deliver={} consume={})",
                row.edge,
                row.dst,
                gap,
                emit.bins,
                stuck_at,
                emit.bins,
                ship.bins,
                deliver.bins,
                consume.bins
            ));
        }
        if let Err(violations) = self.audit.check() {
            // Conservation failures not already covered by a stuck row
            // (e.g. a double-delivered bin: consume > emit).
            for v in violations
                .iter()
                .filter(|v| v.field == "bins" && v.stages.iter().any(|&s| s > v.stages[0]))
            {
                findings.push(format!("conservation violated: {v}"));
            }
        }
        // Gauge hot spots at dump time.
        for (suffix, what) in [
            ("deferred_bins", "bins deferred by flow control"),
            ("queue_depth", "bins queued for execution"),
            ("window_inflight", "unacked bins holding the window"),
        ] {
            if let Some((node, value)) = self
                .gauges
                .iter()
                .filter(|g| g.metric() == suffix && g.value > 0)
                .map(|g| (g.node, g.value))
                .max_by_key(|&(_, v)| v)
            {
                findings.push(format!("node {node} still holds {value} {what}"));
            }
        }
        if let Some(e) = &self.error {
            findings.push(format!("job error: {e}"));
        }
        if findings.len() == (self.trip.is_some() as usize) + (self.error.is_some() as usize) {
            findings.push(
                "no custody gap and no hot gauges: suspect completion signalling \
                 (a flowlet that never announced EdgeComplete)"
                    .to_string(),
            );
        }
        findings
    }

    /// The full human-readable doctor report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "doctor report: job {:?} ({} engine)\n",
            self.job, self.engine
        ));
        match (&self.trip, &self.error) {
            (None, None) => out.push_str("status: no trip, no error recorded\n"),
            (trip, error) => {
                if let Some(t) = trip {
                    out.push_str(&format!("trip: {} at epoch {}\n", t.class.name(), t.epoch));
                }
                if let Some(e) = error {
                    out.push_str(&format!("error: {e}\n"));
                }
            }
        }
        out.push_str("\ndiagnosis (ranked):\n");
        for (i, finding) in self.diagnose().iter().enumerate() {
            out.push_str(&format!("  {}. {}\n", i + 1, finding));
        }
        out.push('\n');
        out.push_str(&self.audit.render());
        let hot: Vec<&GaugeValue> = self.gauges.iter().filter(|g| g.value != 0).collect();
        if !hot.is_empty() {
            out.push_str("\nnon-zero gauges at dump time:\n");
            for g in hot {
                out.push_str(&format!("  {:<40} {}\n", g.name, g.value));
            }
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "\nWARNING: the trace ring overflowed and lost {} events; the event tail has gaps\n",
                self.dropped_events
            ));
        }
        if !self.events.is_empty() {
            out.push_str(&format!(
                "\nlast {} trace events (of the bounded black-box ring):\n",
                self.events.len().min(20)
            ));
            for ev in self
                .events
                .iter()
                .rev()
                .take(20)
                .collect::<Vec<_>>()
                .iter()
                .rev()
            {
                let args = ev
                    .args
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push_str(&format!(
                    "  t={:<10} node {:<3} worker {:<10} {:<20} {}\n",
                    ev.t_us,
                    ev.node,
                    worker_label(ev.worker),
                    ev.name,
                    args
                ));
            }
        }
        out
    }
}

fn worker_label(worker: u32) -> String {
    match worker {
        crate::WORKER_RUNTIME => "runtime".to_string(),
        crate::WORKER_NET => "net".to_string(),
        crate::WORKER_DISK => "disk".to_string(),
        w => format!("w{w}"),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Audit, AuditStage};
    use super::*;

    fn sample_record() -> FlightRecord {
        let audit = Audit::new(2, 2);
        for stage in AuditStage::ALL {
            audit.record(stage, 0, 1, 8, 256);
        }
        // One bin delivered to node 1 on edge 1 but never consumed.
        audit.record(AuditStage::Emit, 1, 1, 4, 128);
        audit.record(AuditStage::Ship, 1, 1, 4, 128);
        audit.record(AuditStage::Deliver, 1, 1, 4, 128);
        let events = vec![
            TraceEvent {
                t_us: 10,
                node: 0,
                worker: 1,
                kind: EventKind::BinShipped {
                    flowlet: 1,
                    edge: 1,
                    dst: 1,
                    records: 4,
                    bytes: 128,
                    span: 7,
                },
            },
            TraceEvent {
                t_us: 20,
                node: 0,
                worker: crate::WORKER_RUNTIME,
                kind: EventKind::Watchdog {
                    class: WatchdogClass::Hang,
                    epoch: 6,
                },
            },
        ];
        FlightRecord::capture(
            "wordcount",
            "hamr",
            Some(WatchdogTrip {
                class: WatchdogClass::Hang,
                epoch: 6,
                detail: "no progress for 6 epochs".into(),
            }),
            Some("aborted by watchdog".into()),
            &events,
            64,
            3,
            audit.report(),
            vec![GaugeValue {
                name: "queue_depth{node=\"1\",flowlet=\"2\"}".into(),
                node: 1,
                value: 1,
            }],
        )
    }

    #[test]
    fn flight_record_round_trips_through_json() {
        let record = sample_record();
        let parsed = FlightRecord::parse(&record.to_json()).expect("parse back");
        assert_eq!(parsed, record);
    }

    #[test]
    fn diagnosis_names_the_stuck_edge_first_after_the_trip() {
        let record = sample_record();
        let findings = record.diagnose();
        assert!(findings[0].contains("hang"), "{findings:?}");
        assert!(
            findings[1].contains("edge 1 -> node 1") && findings[1].contains("never consumed"),
            "{findings:?}"
        );
        let rendered = record.render();
        assert!(rendered.contains("diagnosis (ranked):"));
        assert!(rendered.contains("watchdog-hang"), "event tail rendered");
    }

    #[test]
    fn capture_keeps_only_the_newest_events() {
        let events: Vec<TraceEvent> = (0..100)
            .map(|i| TraceEvent {
                t_us: i,
                node: 0,
                worker: 0,
                kind: EventKind::DiskRead { bytes: i },
            })
            .collect();
        let record = FlightRecord::capture(
            "j",
            "hamr",
            None,
            None,
            &events,
            16,
            0,
            Audit::disabled().report(),
            Vec::new(),
        );
        assert_eq!(record.events.len(), 16);
        assert_eq!(record.events[0].t_us, 84, "oldest kept event");
        assert_eq!(record.events.last().unwrap().t_us, 99);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FlightRecord::parse("not json").is_err());
        assert!(FlightRecord::parse("{}").is_err());
        assert!(FlightRecord::parse("{\"job\":\"x\"}").is_err());
    }

    #[test]
    fn clean_record_diagnosis_points_at_completion_signalling() {
        let record = FlightRecord::capture(
            "clean",
            "hamr",
            None,
            None,
            &[],
            8,
            0,
            Audit::new(1, 1).report(),
            Vec::new(),
        );
        let findings = record.diagnose();
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].contains("completion signalling"),
            "{findings:?}"
        );
    }
}

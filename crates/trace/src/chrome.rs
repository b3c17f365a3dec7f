//! Chrome trace-event JSON export.
//!
//! Produces the `{"traceEvents": [...]}` object-format document that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` load
//! directly. Mapping:
//!
//! * `pid` = cluster node, `tid` = worker lane;
//! * `TaskStart`/`TaskEnd` pairs become `"X"` (complete) slices with
//!   record counts in `args`;
//! * `FlowControlResume` synthesizes a retroactive `"X"` stall slice
//!   covering the time the bin sat in the deferred queue;
//! * `SpillStart`/`SpillEnd` pairs become `"X"` spill slices;
//! * everything else (`BinShipped`, `NetSend`, ...) becomes an `"i"`
//!   instant;
//! * `"M"` metadata events name processes and the synthetic lanes.

use crate::json::escape;
use crate::{EventKind, TraceEvent, WORKER_DISK, WORKER_NET, WORKER_RUNTIME};
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt::Write as _;

fn lane_name(worker: u32) -> String {
    match worker {
        WORKER_RUNTIME => "runtime".to_string(),
        WORKER_NET => "net".to_string(),
        WORKER_DISK => "disk".to_string(),
        w => format!("worker {w}"),
    }
}

/// Perfetto sorts tids numerically; remap the sentinel lanes to small
/// negative-looking slots so "runtime/net/disk" group below workers
/// while keeping worker ids stable.
fn lane_tid(worker: u32) -> u64 {
    match worker {
        WORKER_RUNTIME => 1_000_000,
        WORKER_NET => 1_000_001,
        WORKER_DISK => 1_000_002,
        w => w as u64,
    }
}

struct Emitter {
    out: String,
    first: bool,
}

impl Emitter {
    fn new() -> Self {
        Emitter {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Append one pre-rendered event object body (without braces).
    fn push(&mut self, body: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(&body);
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn complete_slice(
    name: &str,
    cat: &str,
    node: u32,
    worker: u32,
    ts_us: u64,
    dur_us: u64,
    args: &[(&str, u64)],
) -> String {
    let mut s = format!(
        "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}",
        escape(name),
        escape(cat),
        node,
        lane_tid(worker),
        ts_us,
        dur_us,
    );
    push_args(&mut s, args);
    s
}

fn instant(
    name: &str,
    cat: &str,
    node: u32,
    worker: u32,
    ts_us: u64,
    args: &[(&str, u64)],
) -> String {
    let mut s = format!(
        "\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{}",
        escape(name),
        escape(cat),
        node,
        lane_tid(worker),
        ts_us,
    );
    push_args(&mut s, args);
    s
}

fn push_args(s: &mut String, args: &[(&str, u64)]) {
    if args.is_empty() {
        return;
    }
    s.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", escape(k), v);
    }
    s.push('}');
}

fn metadata(name: &str, node: u32, tid: Option<u64>, value: &str) -> String {
    let tid_part = tid.map(|t| format!(",\"tid\":{t}")).unwrap_or_default();
    format!(
        "\"name\":\"{}\",\"ph\":\"M\",\"pid\":{}{},\"args\":{{\"name\":\"{}\"}}",
        escape(name),
        node,
        tid_part,
        escape(value),
    )
}

/// Render `events` as a Chrome trace-event JSON document.
///
/// Events need not be sorted; they are sorted internally. Unpaired
/// `TaskStart`s (e.g. from a truncated ring buffer) are dropped;
/// unpaired `TaskEnd`s become instants so nothing is silently lost.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut evs: Vec<&TraceEvent> = events.iter().collect();
    evs.sort_by_key(|e| e.t_us);

    let mut em = Emitter::new();
    // Per-(node, worker) stack of open TaskStarts; per-(node, worker,
    // flowlet) open SpillStarts.
    type OpenTask = (u64, crate::TaskKind, u32);
    let mut task_stack: HashMap<(u32, u32), Vec<OpenTask>> = HashMap::new();
    let mut spill_open: HashMap<(u32, u32, u32), u64> = HashMap::new();
    let mut lanes_seen: BTreeSet<(u32, u32)> = BTreeSet::new();

    for ev in &evs {
        lanes_seen.insert((ev.node, ev.worker));
        match &ev.kind {
            EventKind::TaskStart { task, flowlet, .. } => {
                task_stack
                    .entry((ev.node, ev.worker))
                    .or_default()
                    .push((ev.t_us, *task, *flowlet));
            }
            EventKind::TaskEnd {
                task,
                flowlet,
                records_in,
                records_out,
            } => {
                let stack = task_stack.entry((ev.node, ev.worker)).or_default();
                // Pop the innermost matching start (tasks on one worker
                // nest; mismatches mean the ring dropped the start).
                let started = stack
                    .iter()
                    .rposition(|(_, t, f)| t == task && f == flowlet)
                    .map(|i| stack.remove(i).0);
                match started {
                    Some(ts) => em.push(complete_slice(
                        task.name(),
                        "task",
                        ev.node,
                        ev.worker,
                        ts,
                        ev.t_us.saturating_sub(ts),
                        &[
                            ("flowlet", *flowlet as u64),
                            ("records_in", *records_in),
                            ("records_out", *records_out),
                        ],
                    )),
                    None => em.push(instant(
                        task.name(),
                        "task",
                        ev.node,
                        ev.worker,
                        ev.t_us,
                        &[("flowlet", *flowlet as u64), ("records_out", *records_out)],
                    )),
                }
            }
            EventKind::FlowControlResume {
                flowlet,
                edge,
                dst,
                stalled_us,
                span,
            } => {
                em.push(complete_slice(
                    "flow-control stall",
                    "flow-control",
                    ev.node,
                    ev.worker,
                    ev.t_us.saturating_sub(*stalled_us),
                    *stalled_us,
                    &[
                        ("flowlet", *flowlet as u64),
                        ("edge", *edge as u64),
                        ("dst", *dst as u64),
                        ("span", *span),
                    ],
                ));
            }
            EventKind::FlowControlStall {
                flowlet,
                edge,
                dst,
                span,
            } => {
                em.push(instant(
                    "stall",
                    "flow-control",
                    ev.node,
                    ev.worker,
                    ev.t_us,
                    &[
                        ("flowlet", *flowlet as u64),
                        ("edge", *edge as u64),
                        ("dst", *dst as u64),
                        ("span", *span),
                    ],
                ));
            }
            EventKind::SpillStart { flowlet } => {
                spill_open.insert((ev.node, ev.worker, *flowlet), ev.t_us);
            }
            EventKind::SpillEnd { flowlet, bytes } => {
                let ts = spill_open
                    .remove(&(ev.node, ev.worker, *flowlet))
                    .unwrap_or(ev.t_us);
                em.push(complete_slice(
                    "spill",
                    "disk",
                    ev.node,
                    ev.worker,
                    ts,
                    ev.t_us.saturating_sub(ts),
                    &[("flowlet", *flowlet as u64), ("bytes", *bytes)],
                ));
            }
            EventKind::BinEmitted {
                flowlet,
                edge,
                dst,
                span,
                records,
            } => em.push(instant(
                "bin-emitted",
                "dataflow",
                ev.node,
                ev.worker,
                ev.t_us,
                &[
                    ("flowlet", *flowlet as u64),
                    ("edge", *edge as u64),
                    ("dst", *dst as u64),
                    ("span", *span),
                    ("records", *records as u64),
                ],
            )),
            EventKind::BinShipped {
                flowlet,
                edge,
                dst,
                records,
                bytes,
                span,
            } => em.push(instant(
                "bin-shipped",
                "dataflow",
                ev.node,
                ev.worker,
                ev.t_us,
                &[
                    ("flowlet", *flowlet as u64),
                    ("edge", *edge as u64),
                    ("dst", *dst as u64),
                    ("records", *records as u64),
                    ("bytes", *bytes),
                    ("span", *span),
                ],
            )),
            EventKind::BinIngress {
                flowlet,
                edge,
                from,
                span,
            } => em.push(instant(
                "bin-ingress",
                "dataflow",
                ev.node,
                ev.worker,
                ev.t_us,
                &[
                    ("flowlet", *flowlet as u64),
                    ("edge", *edge as u64),
                    ("from", *from as u64),
                    ("span", *span),
                ],
            )),
            EventKind::NetSend { to, bytes } => em.push(instant(
                "net-send",
                "net",
                ev.node,
                ev.worker,
                ev.t_us,
                &[("to", *to as u64), ("bytes", *bytes)],
            )),
            EventKind::NetDeliver { from, bytes } => em.push(instant(
                "net-deliver",
                "net",
                ev.node,
                ev.worker,
                ev.t_us,
                &[("from", *from as u64), ("bytes", *bytes)],
            )),
            EventKind::ReduceFire { flowlet, shards } => em.push(instant(
                "reduce-fire",
                "dataflow",
                ev.node,
                ev.worker,
                ev.t_us,
                &[("flowlet", *flowlet as u64), ("shards", *shards as u64)],
            )),
            EventKind::TaskStolen {
                thief,
                victim,
                flowlet,
            } => em.push(instant(
                "task-stolen",
                "sched",
                ev.node,
                ev.worker,
                ev.t_us,
                &[
                    ("thief", *thief as u64),
                    ("victim", *victim as u64),
                    ("flowlet", *flowlet as u64),
                ],
            )),
            EventKind::WorkerParked => {
                em.push(instant("parked", "sched", ev.node, ev.worker, ev.t_us, &[]))
            }
            EventKind::WorkerUnparked { parked_us } => {
                // Like FlowControlResume: synthesize the park interval
                // retroactively, since only the wake-up knows how long
                // the worker slept.
                em.push(complete_slice(
                    "parked",
                    "sched",
                    ev.node,
                    ev.worker,
                    ev.t_us.saturating_sub(*parked_us),
                    *parked_us,
                    &[],
                ));
            }
            EventKind::DiskRead { bytes } => em.push(instant(
                "disk-read",
                "disk",
                ev.node,
                ev.worker,
                ev.t_us,
                &[("bytes", *bytes)],
            )),
            EventKind::DiskWrite { bytes } => em.push(instant(
                "disk-write",
                "disk",
                ev.node,
                ev.worker,
                ev.t_us,
                &[("bytes", *bytes)],
            )),
            EventKind::Watchdog { class, epoch } => em.push(instant(
                &format!("watchdog-{}", class.name()),
                "watchdog",
                ev.node,
                ev.worker,
                ev.t_us,
                &[("epoch", *epoch)],
            )),
        }
    }

    // Name processes and lanes so the timeline is readable.
    let nodes: BTreeSet<u32> = lanes_seen.iter().map(|(n, _)| *n).collect();
    for node in nodes {
        em.push(metadata(
            "process_name",
            node,
            None,
            &format!("node {node}"),
        ));
    }
    for (node, worker) in &lanes_seen {
        em.push(metadata(
            "thread_name",
            *node,
            Some(lane_tid(*worker)),
            &lane_name(*worker),
        ));
    }

    em.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::TaskKind;

    fn ev(t_us: u64, node: u32, worker: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            t_us,
            node,
            worker,
            kind,
        }
    }

    fn events_of(doc: &str) -> Vec<Json> {
        let parsed = parse(doc).expect("exporter output is valid JSON");
        parsed
            .get("traceEvents")
            .expect("has traceEvents")
            .as_arr()
            .expect("traceEvents is an array")
            .to_vec()
    }

    #[test]
    fn task_pair_becomes_complete_slice() {
        let doc = chrome_trace_json(&[
            ev(
                100,
                0,
                1,
                EventKind::TaskStart {
                    task: TaskKind::MapBin,
                    flowlet: 2,
                    span: 0,
                },
            ),
            ev(
                350,
                0,
                1,
                EventKind::TaskEnd {
                    task: TaskKind::MapBin,
                    flowlet: 2,
                    records_in: 64,
                    records_out: 32,
                },
            ),
        ]);
        let evs = events_of(&doc);
        let slice = evs
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("one X slice");
        assert_eq!(slice.get("name").unwrap().as_str(), Some("map-bin"));
        assert_eq!(slice.get("ts").unwrap().as_u64(), Some(100));
        assert_eq!(slice.get("dur").unwrap().as_u64(), Some(250));
        assert_eq!(slice.get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(slice.get("tid").unwrap().as_u64(), Some(1));
        let args = slice.get("args").unwrap();
        assert_eq!(args.get("records_in").unwrap().as_u64(), Some(64));
        assert_eq!(args.get("records_out").unwrap().as_u64(), Some(32));
    }

    #[test]
    fn resume_synthesizes_retroactive_stall_slice() {
        let doc = chrome_trace_json(&[ev(
            5000,
            3,
            crate::WORKER_RUNTIME,
            EventKind::FlowControlResume {
                flowlet: 1,
                edge: 0,
                dst: 2,
                stalled_us: 1200,
                span: 0,
            },
        )]);
        let evs = events_of(&doc);
        let stall = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("flow-control stall"))
            .expect("stall slice present");
        assert_eq!(stall.get("ts").unwrap().as_u64(), Some(3800));
        assert_eq!(stall.get("dur").unwrap().as_u64(), Some(1200));
    }

    #[test]
    fn unpaired_end_becomes_instant_not_panic() {
        let doc = chrome_trace_json(&[ev(
            10,
            0,
            0,
            EventKind::TaskEnd {
                task: TaskKind::FireReduce,
                flowlet: 0,
                records_in: 1,
                records_out: 1,
            },
        )]);
        let evs = events_of(&doc);
        assert!(evs
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("i")
                && e.get("name").and_then(Json::as_str) == Some("fire-reduce")));
    }

    #[test]
    fn metadata_names_nodes_and_lanes() {
        let doc = chrome_trace_json(&[
            ev(1, 0, 0, EventKind::DiskRead { bytes: 4 }),
            ev(
                2,
                1,
                crate::WORKER_NET,
                EventKind::NetSend { to: 0, bytes: 9 },
            ),
        ]);
        let evs = events_of(&doc);
        let metas: Vec<&Json> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .collect();
        assert!(metas.iter().any(|m| {
            m.get("name").and_then(Json::as_str) == Some("process_name")
                && m.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("node 1")
        }));
        assert!(metas.iter().any(|m| {
            m.get("name").and_then(Json::as_str) == Some("thread_name")
                && m.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("net")
        }));
    }

    #[test]
    fn steal_and_park_events_round_trip() {
        let doc = chrome_trace_json(&[
            ev(
                100,
                0,
                1,
                EventKind::TaskStolen {
                    thief: 1,
                    victim: 0,
                    flowlet: 3,
                },
            ),
            ev(200, 0, 1, EventKind::WorkerParked),
            ev(1400, 0, 1, EventKind::WorkerUnparked { parked_us: 1200 }),
        ]);
        let evs = events_of(&doc);
        let steal = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("task-stolen"))
            .expect("steal instant present");
        assert_eq!(steal.get("ph").unwrap().as_str(), Some("i"));
        let args = steal.get("args").unwrap();
        assert_eq!(args.get("thief").unwrap().as_u64(), Some(1));
        assert_eq!(args.get("victim").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("flowlet").unwrap().as_u64(), Some(3));
        // The unpark synthesizes a retroactive park slice covering the
        // slept interval.
        let park = evs
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("parked")
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .expect("park slice present");
        assert_eq!(park.get("ts").unwrap().as_u64(), Some(200));
        assert_eq!(park.get("dur").unwrap().as_u64(), Some(1200));
    }

    #[test]
    fn nested_tasks_pair_innermost_first() {
        // fire-reduce wraps reduce-ingest on the same worker.
        let doc = chrome_trace_json(&[
            ev(
                0,
                0,
                0,
                EventKind::TaskStart {
                    task: TaskKind::FireReduce,
                    flowlet: 1,
                    span: 0,
                },
            ),
            ev(
                10,
                0,
                0,
                EventKind::TaskStart {
                    task: TaskKind::ReduceIngest,
                    flowlet: 1,
                    span: 0,
                },
            ),
            ev(
                20,
                0,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::ReduceIngest,
                    flowlet: 1,
                    records_in: 5,
                    records_out: 5,
                },
            ),
            ev(
                40,
                0,
                0,
                EventKind::TaskEnd {
                    task: TaskKind::FireReduce,
                    flowlet: 1,
                    records_in: 5,
                    records_out: 1,
                },
            ),
        ]);
        let evs = events_of(&doc);
        let durs: Vec<(String, u64)> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap().to_string(),
                    e.get("dur").unwrap().as_u64().unwrap(),
                )
            })
            .collect();
        assert!(durs.contains(&("reduce-ingest".to_string(), 10)));
        assert!(durs.contains(&("fire-reduce".to_string(), 40)));
    }
}

//! Structured event tracing for the HAMR engine.
//!
//! The engine (and the Hadoop baseline, the simulated fabric and the
//! simulated disks) emit [`TraceEvent`]s through a [`Tracer`] handle.
//! A tracer is either *disabled* — every emit is a single branch on a
//! `None`, so instrumented code costs nothing in normal runs — or bound
//! to a [`TraceSink`] such as [`RingSink`], a lock-light per-thread-lane
//! ring buffer.
//!
//! Collected events can be rendered two ways:
//! * [`chrome_trace_json`] — the Chrome trace-event JSON format, which
//!   loads directly into Perfetto / `chrome://tracing` as a per-node,
//!   per-worker timeline;
//! * [`render_summary`] — a plain-text per-flowlet table with task
//!   latency percentiles (from [`LatencyHistogram`]) and cumulative
//!   flow-control stall time.

pub mod audit;
pub mod causal;
mod chrome;
pub mod csv;
mod hist;
pub mod journal;
pub mod json;
pub mod registry;
pub mod stats;
mod summary;

pub use audit::{
    Audit, AuditBin, AuditReport, AuditRow, AuditStage, AuditViolation, CombineRow, FlightRecord,
    GaugeValue, RecordedEvent, StageCount, WatchdogTrip,
};
pub use causal::{
    analyze, render_attribution, render_critical_path, render_stall_edges, Buckets, CausalReport,
    CriticalPath, FlowletBuckets, NodeBuckets, StallEdge,
};
pub use chrome::chrome_trace_json;
pub use csv::{csv_escape, push_csv_row};
pub use hist::LatencyHistogram;
pub use journal::{
    read_journal, JobSpan, Journal, JournalConfig, JournalMode, JournalRead, JournalRecord,
    Timeline,
};
pub use registry::{
    http_get, parse_prometheus, AlertEngine, AlertEvent, AlertKind, AlertRule, AlertState, Counter,
    Gauge, HistSample, Histogram, HttpResponse, HttpServer, Labels, MetricsRegistry, PromSample,
    RouteHandler, SampleValue, SeriesSample, Snapshot,
};
pub use stats::{
    EdgeStatsSummary, HopKind, LineageHop, LineageSample, SketchSet, SpaceSaving, StatsMode,
    StatsPlane, StatsSnapshot,
};
pub use summary::{
    render_occupancy, render_summary, worker_occupancy, FlowletSummaryRow, WorkerOccupancyRow,
};

/// Inert: gauges live in the [`MetricsRegistry`] on every run, so
/// there is nothing left to attach. The type remains only so the
/// benchmark's `attach_profiler(tracer, Telemetry::disabled())` call
/// keeps compiling, and goes when a later benchmark change drops that
/// argument.
#[derive(Debug, Clone, Copy, Default)]
pub struct Telemetry;

impl Telemetry {
    pub fn disabled() -> Self {
        Telemetry
    }
}

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The "no span" sentinel carried by bins when tracing is off. Real
/// bin-lineage spans are minted by [`Tracer::next_span`], start at 1,
/// and are unique among one tracer and its clones.
pub const NO_SPAN: u64 = 0;

/// Synthetic worker lanes for events not produced by a worker thread.
/// Real workers use their pool index (0, 1, ...).
pub const WORKER_RUNTIME: u32 = u32::MAX;
/// The network fabric / timer thread.
pub const WORKER_NET: u32 = u32::MAX - 1;
/// The disk model.
pub const WORKER_DISK: u32 = u32::MAX - 2;

/// What kind of task a `TaskStart`/`TaskEnd` span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// HAMR loader split.
    LoaderSplit,
    /// HAMR stream-source epoch.
    StreamEpoch,
    /// One bin through a map flowlet.
    MapBin,
    /// One bin folded into partial-reduce accumulators.
    PartialFold,
    /// One bin ingested into reduce group state.
    ReduceIngest,
    /// One reduce fire shard (grouped iteration + user reduce).
    FireReduce,
    /// One partial-reduce finish batch.
    FirePartial,
    /// A MapReduce (baseline engine) map task.
    MrMap,
    /// A MapReduce (baseline engine) reduce task.
    MrReduce,
}

impl TaskKind {
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::LoaderSplit => "loader-split",
            TaskKind::StreamEpoch => "stream-epoch",
            TaskKind::MapBin => "map-bin",
            TaskKind::PartialFold => "partial-fold",
            TaskKind::ReduceIngest => "reduce-ingest",
            TaskKind::FireReduce => "fire-reduce",
            TaskKind::FirePartial => "fire-partial",
            TaskKind::MrMap => "mr-map",
            TaskKind::MrReduce => "mr-reduce",
        }
    }
}

/// The payload of one trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A worker began executing a task. `span` is the lineage span of
    /// the bin the task consumes (0 for tasks that consume no bin:
    /// loader splits, stream epochs, reduce/partial fires).
    TaskStart {
        task: TaskKind,
        flowlet: u32,
        span: u64,
    },
    /// The matching task finished.
    TaskEnd {
        task: TaskKind,
        flowlet: u32,
        records_in: u64,
        records_out: u64,
    },
    /// A producing task closed a full output bin destined for `dst` on
    /// `edge` and minted lineage span `span` for it. Emitted before any
    /// flow-control decision, so `BinEmitted → (FlowControlStall?) →
    /// BinShipped → BinIngress → TaskStart` is the per-bin chain.
    BinEmitted {
        flowlet: u32,
        edge: u32,
        dst: u32,
        span: u64,
        records: u32,
    },
    /// A bin left this node for `dst` on `edge`. `bytes` is the exact
    /// encoded frame payload size.
    BinShipped {
        flowlet: u32,
        edge: u32,
        dst: u32,
        records: u32,
        bytes: u64,
        span: u64,
    },
    /// A shipped bin arrived at its destination node's runtime and was
    /// queued for a consuming task (event node = receiver).
    BinIngress {
        flowlet: u32,
        edge: u32,
        from: u32,
        span: u64,
    },
    /// Flow control deferred a finished bin (window to `dst` full).
    FlowControlStall {
        flowlet: u32,
        edge: u32,
        dst: u32,
        span: u64,
    },
    /// A previously deferred bin finally shipped; `stalled_us` is how
    /// long it sat in the deferred queue.
    FlowControlResume {
        flowlet: u32,
        edge: u32,
        dst: u32,
        stalled_us: u64,
        span: u64,
    },
    /// Reduce state began spilling a shard to local disk.
    SpillStart { flowlet: u32 },
    /// The spill finished, having written `bytes`.
    SpillEnd { flowlet: u32, bytes: u64 },
    /// The fabric accepted a message for `to` (event node = sender).
    NetSend { to: u32, bytes: u64 },
    /// The fabric delivered a message from `from` (event node = receiver).
    NetDeliver { from: u32, bytes: u64 },
    /// A reduce flowlet fired, splitting into `shards` parallel shards.
    ReduceFire { flowlet: u32, shards: u32 },
    /// Work stealing: worker `thief` (the event's lane) took tasks from
    /// worker `victim`'s deque; the first stolen task belongs to
    /// `flowlet`.
    TaskStolen {
        thief: u32,
        victim: u32,
        flowlet: u32,
    },
    /// A worker found the node drained and is about to park.
    WorkerParked,
    /// The matching wake-up; `parked_us` is how long the worker slept.
    WorkerUnparked { parked_us: u64 },
    /// The disk model served a read.
    DiskRead { bytes: u64 },
    /// The disk model served a write.
    DiskWrite { bytes: u64 },
    /// The watchdog classified a run-health incident at monitoring
    /// epoch `epoch` (event node = the node the diagnosis points at,
    /// or 0 for cluster-wide incidents).
    Watchdog { class: WatchdogClass, epoch: u64 },
}

/// How the watchdog classified a no-progress (or skewed-progress)
/// window. Lives in the trace crate so the event stream, the flight
/// recorder and the doctor all share one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchdogClass {
    /// Deferred bins exist and flow-control windows are full, but the
    /// fabric delivers nothing: a backpressure deadlock.
    Backpressure,
    /// Zero queued work, zero busy workers, zero deliveries — yet the
    /// job has not completed: something never signalled.
    Hang,
    /// The cluster is progressing but per-node progress is badly
    /// skewed: one or more nodes lag far behind.
    Straggler,
}

impl WatchdogClass {
    pub fn name(self) -> &'static str {
        match self {
            WatchdogClass::Backpressure => "backpressure",
            WatchdogClass::Hang => "hang",
            WatchdogClass::Straggler => "straggler",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "backpressure" => Some(WatchdogClass::Backpressure),
            "hang" => Some(WatchdogClass::Hang),
            "straggler" => Some(WatchdogClass::Straggler),
            _ => None,
        }
    }
}

/// One event: when, where, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the tracer's epoch.
    pub t_us: u64,
    /// Cluster node the event happened on.
    pub node: u32,
    /// Worker lane: pool index, or one of the `WORKER_*` constants.
    pub worker: u32,
    pub kind: EventKind,
}

/// Destination for trace events. Implementations must tolerate
/// concurrent `record` calls from many threads.
pub trait TraceSink: Send + Sync {
    fn record(&self, ev: TraceEvent);
}

/// A sink that discards everything. Useful for measuring the overhead
/// of the instrumentation itself (timestamping without storage).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _ev: TraceEvent) {}
}

/// Lock-light bounded sink: events land in per-thread-lane ring
/// buffers, so concurrent workers rarely contend on the same mutex.
/// When a lane overflows its capacity the oldest events are dropped
/// (and counted), never the newest.
pub struct RingSink {
    lanes: Vec<Mutex<VecDeque<TraceEvent>>>,
    per_lane_capacity: usize,
    dropped: AtomicU64,
    /// Optional registry counter bumped alongside `dropped`, so lost
    /// trace events show up live in `/metrics` instead of warn-only.
    drop_mirror: Mutex<Option<Counter>>,
    /// Optional callback handed each event the ring is about to
    /// overwrite — the flight journal's continuous-persistence hook.
    /// Follows the `drop_mirror` shape: unset, overflow costs one
    /// mutex probe; set, the evicted event is offered to the tap
    /// before it is lost.
    overflow_tap: Mutex<Option<OverflowTap>>,
}

/// Callback offered each event the ring evicts on overflow — the
/// flight journal's continuous-persistence hook.
pub type OverflowTap = Arc<dyn Fn(&TraceEvent) + Send + Sync>;

/// Each OS thread gets a stable small integer used to pick its lane.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

impl RingSink {
    /// `lanes` independent buffers of `per_lane_capacity` events each.
    pub fn new(lanes: usize, per_lane_capacity: usize) -> Self {
        assert!(lanes > 0 && per_lane_capacity > 0);
        RingSink {
            lanes: (0..lanes).map(|_| Mutex::new(VecDeque::new())).collect(),
            per_lane_capacity,
            dropped: AtomicU64::new(0),
            drop_mirror: Mutex::new(None),
            overflow_tap: Mutex::new(None),
        }
    }

    /// A comfortable default: 64 lanes of 64k events.
    pub fn with_default_capacity() -> Self {
        RingSink::new(64, 64 * 1024)
    }

    /// Events dropped due to lane overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Mirror future drops into a registry counter (typically
    /// `trace_dropped_events_total`), making overflow visible in
    /// `/metrics` while the run is still going.
    pub fn mirror_drops(&self, counter: Counter) {
        *self.drop_mirror.lock().unwrap_or_else(|p| p.into_inner()) = Some(counter);
    }

    /// Install (or clear) the overflow tap: every event the ring
    /// evicts to make room is offered to `tap` before it is lost. The
    /// tap is called with no sink locks held, so it may itself emit
    /// trace events (the journal's segment mirror writes through
    /// traced simdisk) without re-entering a held lane lock.
    pub fn set_overflow_tap(&self, tap: Option<OverflowTap>) {
        *self.overflow_tap.lock().unwrap_or_else(|p| p.into_inner()) = tap;
    }

    /// Remove and return all buffered events, sorted by timestamp.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            let mut q = lane.lock().unwrap_or_else(|p| p.into_inner());
            all.extend(q.drain(..));
        }
        all.sort_by_key(|e| e.t_us);
        all
    }

    /// Copy out all buffered events without consuming them, sorted by
    /// timestamp — what the live `/doctor` endpoint reads mid-run,
    /// leaving the buffer intact for the post-mortem drain.
    pub fn peek(&self) -> Vec<TraceEvent> {
        let mut all = Vec::new();
        for lane in &self.lanes {
            let q = lane.lock().unwrap_or_else(|p| p.into_inner());
            all.extend(q.iter().cloned());
        }
        all.sort_by_key(|e| e.t_us);
        all
    }
}

impl TraceSink for RingSink {
    fn record(&self, ev: TraceEvent) {
        let slot = THREAD_SLOT.with(|s| *s);
        let mut evicted = None;
        {
            let mut q = self.lanes[slot % self.lanes.len()]
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            if q.len() >= self.per_lane_capacity {
                evicted = q.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
                if let Some(counter) = &*self.drop_mirror.lock().unwrap_or_else(|p| p.into_inner())
                {
                    counter.inc();
                }
            }
            q.push_back(ev);
        }
        // The tap runs with no lock held (lane or tap registration): a
        // journal tap may rotate a segment, whose mirror write into a
        // traced simdisk re-enters `record` on this same thread.
        if let Some(evicted) = evicted {
            let tap = self
                .overflow_tap
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone();
            if let Some(tap) = tap {
                tap(&evicted);
            }
        }
    }
}

/// Cheap, cloneable handle the engine threads carry around. All clones
/// share one epoch, so timestamps from different threads are on one
/// axis, and one span counter, so span ids are unique across every
/// node of a run (all simulated nodes carry clones of one tracer)
/// without any coordination at ship time.
#[derive(Clone)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    epoch: Instant,
    /// Next bin-lineage span id; `None` when disabled, so untraced
    /// runs have no counter to touch.
    spans: Option<Arc<AtomicU64>>,
}

impl Tracer {
    /// A tracer that records into `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer {
            sink: Some(sink),
            epoch: Instant::now(),
            spans: Some(Arc::new(AtomicU64::new(1))),
        }
    }

    /// A tracer whose `emit` is a no-op (a single `None` check).
    pub fn disabled() -> Self {
        Tracer {
            sink: None,
            epoch: Instant::now(),
            spans: None,
        }
    }

    /// Mint a fresh non-zero bin-lineage span id, or [`NO_SPAN`] when
    /// tracing is disabled.
    #[inline]
    pub fn next_span(&self) -> u64 {
        match &self.spans {
            Some(next) => next.fetch_add(1, Ordering::Relaxed),
            None => NO_SPAN,
        }
    }

    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Microseconds since this tracer's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Record one event (no-op when disabled).
    #[inline]
    pub fn emit(&self, node: u32, worker: u32, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                t_us: self.now_us(),
                node,
                worker,
                kind,
            });
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.emit(0, 0, EventKind::DiskRead { bytes: 1 });
    }

    #[test]
    fn ring_sink_round_trip() {
        let sink = Arc::new(RingSink::new(4, 128));
        let t = Tracer::new(sink.clone());
        assert!(t.enabled());
        t.emit(
            1,
            2,
            EventKind::TaskStart {
                task: TaskKind::MapBin,
                flowlet: 3,
                span: NO_SPAN,
            },
        );
        t.emit(
            1,
            2,
            EventKind::TaskEnd {
                task: TaskKind::MapBin,
                flowlet: 3,
                records_in: 10,
                records_out: 7,
            },
        );
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].t_us <= events[1].t_us);
        assert_eq!(events[0].node, 1);
        assert_eq!(events[0].worker, 2);
        assert_eq!(sink.dropped(), 0);
        assert!(sink.drain().is_empty(), "drain empties the sink");
    }

    #[test]
    fn ring_sink_drops_oldest_on_overflow() {
        let sink = RingSink::new(1, 4);
        for i in 0..10u64 {
            sink.record(TraceEvent {
                t_us: i,
                node: 0,
                worker: 0,
                kind: EventKind::DiskRead { bytes: i },
            });
        }
        assert_eq!(sink.dropped(), 6);
        let events = sink.drain();
        assert_eq!(events.len(), 4);
        // The *newest* events survive.
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::DiskRead { bytes: 9 }
        ));
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let sink = Arc::new(RingSink::new(8, 10_000));
        let tracer = Tracer::new(sink.clone());
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let tracer = tracer.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        tracer.emit(0, w, EventKind::DiskWrite { bytes: 1 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sink.drain().len(), 8000);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn clones_share_one_span_counter() {
        let t = Tracer::new(Arc::new(NoopSink));
        let c = t.clone();
        let (a, b) = (t.next_span(), c.next_span());
        assert_ne!(a, NO_SPAN);
        assert_eq!(b, a + 1, "clones mint from one counter");
        // A separate tracer has its own counter, and a disabled one
        // mints nothing.
        assert_eq!(Tracer::new(Arc::new(NoopSink)).next_span(), 1);
        assert_eq!(Tracer::disabled().next_span(), NO_SPAN);
    }

    #[test]
    fn clones_share_one_epoch() {
        let t = Tracer::new(Arc::new(NoopSink));
        let c = t.clone();
        let a = t.now_us();
        let b = c.now_us();
        assert!(b >= a);
        assert!(b - a < 1_000_000, "clone epochs diverged");
    }
}

//! The per-node flowlet runtime.
//!
//! Every cluster node runs one of these. It owns the whole flowlet
//! graph (per the paper — unlike Dryad's per-node subgraphs), a bin
//! queue fed by the network fabric, and a worker thread pool. The
//! runtime thread owns the per-flowlet *admission* state machine
//! (which bins may become tasks, when completion fires); how admitted
//! tasks are executed depends on [`SchedMode`]:
//!
//! * **WorkStealing** (default) — the runtime thread shrinks to an
//!   ingress pump: it admits tasks into the node's [`sched::Pool`]
//!   injector and processes completion bookkeeping. Workers fetch from
//!   their own LIFO deque, steal FIFO from peers, and ship finished
//!   bins *directly* through the shared [`FlowControl`] — a
//!   flow-control defer/resume never round-trips the runtime thread.
//! * **Deterministic** — no worker threads; a seeded PRNG replays one
//!   task interleaving inline on the runtime thread.
//!
//! Either way the thread that executed a task ships its ack and bins
//! ([`ship_done`]) before the runtime thread sees the [`TaskDone`].
//!
//! ## Scheduling (paper §2, Fig. 2)
//! * A flowlet **task** is the finest unit: one loader split, one bin
//!   through a map/partial-reduce, one reduce ingest, or one fire shard.
//! * Map and partial-reduce tasks become ready per-bin — downstream
//!   work starts long before upstream completes (fine-grain async).
//! * Reduce fires only after *all* in-edges complete; completion
//!   messages propagate from the loaders downstream, one per
//!   (edge, upstream-node) pair, ordered behind that node's bins by the
//!   fabric's per-link FIFO.
//!
//! ## Flow control (paper §2 last ¶)
//! A sliding window of `out_window_bins` unacknowledged bins per
//! destination node. When the window is full, finished bins are
//! *deferred* and the producing flowlet is suspended (no new bins are
//! admitted for it) until acknowledgements drain the backlog — "the
//! flowlet stops the current execution immediately and will be
//! scheduled in a later time". Loader concurrency is additionally
//! throttled. Progress is deadlock-free because the graph is acyclic:
//! sinks never defer, so windows always eventually drain. The window
//! and deferred-queue state live in [`FlowControl`] (see `outbuf.rs`),
//! shared between the runtime thread and (under work stealing) the
//! workers.

use crate::config::{FaultInjection, RuntimeConfig, SchedMode};
use crate::flowlet::{AccBox, TaskContext};
use crate::graph::{EdgeId, FlowletId, FlowletKind, JobGraph};
use crate::metrics::{FlowletMetrics, NodeMetrics};
use crate::outbuf::{FillSink, FlowControl, PortSpec, TaskOutput};
use crate::record::{FrameBin, Record};
use crate::reduce_state::{FireShard, PartialState, ReduceState};
use crate::resident::CachePlan;
use crate::sched::{Pool, Source};
use crate::skew::SkewRuntime;
use crate::NodeId;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use hamr_simnet::{Endpoint, Envelope, Payload};
use hamr_trace::{
    Audit, AuditBin, AuditStage, EventKind, Gauge, Labels, MetricsRegistry, StatsPlane, TaskKind,
    Tracer, NO_SPAN, WORKER_RUNTIME,
};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages exchanged between node runtimes over the fabric.
pub(crate) enum NetMsg {
    /// A bin of records for `bin.edge`'s destination flowlet.
    Bin(FrameBin),
    /// The sender's instance of `edge`'s source flowlet has finished
    /// producing on `edge`.
    EdgeComplete { edge: EdgeId },
    /// Streaming punctuation: the sender finished `epoch` on `edge`.
    Marker { edge: EdgeId, epoch: u64 },
    /// The receiver finished processing one bin the addressee sent on
    /// `edge`.
    Ack { edge: EdgeId },
    /// A node hit a fatal error; everyone stops.
    Abort { reason: Arc<String> },
}

impl Payload for NetMsg {
    fn wire_size(&self) -> usize {
        match self {
            NetMsg::Bin(b) => b.wire_size(),
            _ => 24,
        }
    }

    /// Only data bins enter the audit ledger; acks, completion
    /// messages, markers, and aborts are control traffic.
    fn audit_bin(&self) -> Option<AuditBin> {
        match self {
            NetMsg::Bin(b) => Some(AuditBin {
                edge: b.edge as u32,
                records: b.len() as u64,
                bytes: b.payload_bytes() as u64,
            }),
            _ => None,
        }
    }
}

/// Work delivered to a flowlet instance, kept in arrival order so
/// completion/epoch sentinels stay behind the bins they cover.
enum Work {
    Bin {
        from: NodeId,
        /// True when the receipt was already acknowledged (barrier-mode
        /// holds ack on arrival so upstream windows keep moving).
        acked: bool,
        bin: FrameBin,
    },
    Complete,
    Marker {
        epoch: u64,
    },
}

/// A task handed to a worker thread.
enum Task {
    LoaderSplit {
        flowlet: FlowletId,
        index: usize,
    },
    StreamEpoch {
        flowlet: FlowletId,
        epoch: u64,
    },
    MapBin {
        flowlet: FlowletId,
        ack: Option<(NodeId, EdgeId)>,
        bin: FrameBin,
    },
    PartialFold {
        flowlet: FlowletId,
        ack: Option<(NodeId, EdgeId)>,
        bin: FrameBin,
    },
    ReduceIngest {
        flowlet: FlowletId,
        ack: Option<(NodeId, EdgeId)>,
        bin: FrameBin,
    },
    FireReduce {
        flowlet: FlowletId,
        shard: FireShard,
    },
    FirePartial {
        flowlet: FlowletId,
        entries: Vec<(Bytes, AccBox)>,
    },
}

impl Task {
    fn flowlet(&self) -> FlowletId {
        match self {
            Task::LoaderSplit { flowlet, .. }
            | Task::StreamEpoch { flowlet, .. }
            | Task::MapBin { flowlet, .. }
            | Task::PartialFold { flowlet, .. }
            | Task::ReduceIngest { flowlet, .. }
            | Task::FireReduce { flowlet, .. }
            | Task::FirePartial { flowlet, .. } => *flowlet,
        }
    }

    fn trace_kind(&self) -> TaskKind {
        match self {
            Task::LoaderSplit { .. } => TaskKind::LoaderSplit,
            Task::StreamEpoch { .. } => TaskKind::StreamEpoch,
            Task::MapBin { .. } => TaskKind::MapBin,
            Task::PartialFold { .. } => TaskKind::PartialFold,
            Task::ReduceIngest { .. } => TaskKind::ReduceIngest,
            Task::FireReduce { .. } => TaskKind::FireReduce,
            Task::FirePartial { .. } => TaskKind::FirePartial,
        }
    }

    /// Lineage span of the bin this task consumes, if any. Links the
    /// consuming `TaskStart` back to the producer's `BinEmitted`.
    fn span(&self) -> u64 {
        match self {
            Task::MapBin { bin, .. }
            | Task::PartialFold { bin, .. }
            | Task::ReduceIngest { bin, .. } => bin.span,
            _ => NO_SPAN,
        }
    }
}

/// A worker's report after executing one task.
struct TaskDone {
    flowlet: FlowletId,
    bins: Vec<(NodeId, FrameBin)>,
    captured: Vec<Record>,
    ack_to: Option<(NodeId, EdgeId)>,
    /// For stream tasks: (epoch, more-epochs-follow).
    stream: Option<(u64, bool)>,
    is_loader_split: bool,
    is_fire: bool,
    records_in: u64,
    records_out: u64,
    /// Records absorbed by the task's combine buffers. Restores
    /// records_out to its pre-combine value for shuffle-volume
    /// comparability with the mapred baseline.
    combined: u64,
    duration: Duration,
    panic: Option<String>,
}

/// State shared with worker threads.
struct WorkerShared {
    graph: Arc<JobGraph>,
    ctx: TaskContext,
    bin_capacity: usize,
    partial: Vec<Option<Arc<PartialState>>>,
    reduce: Vec<Mutex<Option<Arc<ReduceState>>>>,
    /// Per-job in-node combiners.
    skew: Arc<SkewRuntime>,
    tracer: Tracer,
    audit: Audit,
    /// Registry gauge: workers currently executing a task on this node.
    busy_gauge: Gauge,
    /// Resident-cache fill sink; `Some` only when this job fills one or
    /// more cache tags (see [`CachePlan`]).
    fill: Option<Arc<FillSink>>,
    /// Data-plane statistics plane; `None` when `HAMR_STATS=off`.
    stats: Option<Arc<StatsPlane>>,
}

impl WorkerShared {
    fn make_output(&self, flowlet: FlowletId, lane: u32) -> TaskOutput {
        let def = &self.graph.flowlets[flowlet];
        let ports = self
            .graph
            .out_ports(flowlet)
            .into_iter()
            .map(|(edge, exchange)| PortSpec { edge, exchange })
            .collect();
        let mut out = TaskOutput::new(
            ports,
            self.ctx.node,
            self.ctx.nodes,
            self.bin_capacity,
            def.capture,
            def.name.clone(),
            flowlet as u32,
            lane,
            self.tracer.clone(),
            self.audit.clone(),
        )
        .with_combiners(&self.skew)
        .with_stats(&self.stats);
        if let Some(sink) = &self.fill {
            out = out.with_fill(sink);
        }
        out
    }

    /// Record the terminal reduce hop for a consumed bin. Only samples
    /// already in flight are touched, so this is free for unsampled
    /// traffic and entirely off outside `HAMR_STATS=full`.
    fn stats_consume(&self, bin: &FrameBin, flowlet: FlowletId) {
        if let Some(plane) = &self.stats {
            if plane.lineage_on() {
                plane.consume_bin(
                    bin.edge as u32,
                    self.ctx.node as u32,
                    flowlet as u32,
                    &self.graph.flowlets[flowlet].name,
                    self.ctx.node as u32,
                    bin.frame.iter().map(|(h, _, _)| h),
                );
            }
        }
    }

    /// Tally consume custody for a bin about to be processed: the final
    /// checkpoint of the ledger's emit -> ship -> deliver -> consume
    /// conservation chain.
    fn audit_consume(&self, bin: &FrameBin) {
        self.audit.record(
            AuditStage::Consume,
            bin.edge as u32,
            self.ctx.node as u32,
            bin.len() as u64,
            bin.payload_bytes() as u64,
        );
    }
}

fn execute_task(shared: &WorkerShared, worker_id: usize, task: Task) -> TaskDone {
    let start = Instant::now();
    let flowlet = task.flowlet();
    let trace_kind = task.trace_kind();
    shared.busy_gauge.add(1);
    shared.tracer.emit(
        shared.ctx.node as u32,
        worker_id as u32,
        EventKind::TaskStart {
            task: trace_kind,
            flowlet: flowlet as u32,
            span: task.span(),
        },
    );
    let is_loader_split = matches!(task, Task::LoaderSplit { .. });
    let is_fire = matches!(task, Task::FireReduce { .. } | Task::FirePartial { .. });
    let mut done = TaskDone {
        flowlet,
        bins: Vec::new(),
        captured: Vec::new(),
        ack_to: None,
        stream: None,
        is_loader_split,
        is_fire,
        records_in: 0,
        records_out: 0,
        combined: 0,
        duration: Duration::ZERO,
        panic: None,
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut out = shared.make_output(flowlet, worker_id as u32);
        let kind = &shared.graph.flowlets[flowlet].kind;
        let mut records_in = 0u64;
        let mut ack_to = None;
        let mut stream = None;
        match task {
            Task::LoaderSplit { index, .. } => {
                let FlowletKind::Loader(l) = kind else {
                    unreachable!("loader task for non-loader")
                };
                let mut em = crate::flowlet::Emitter::new(&mut out);
                l.load(&shared.ctx, index, &mut em);
            }
            Task::StreamEpoch { epoch, .. } => {
                let FlowletKind::Stream(s) = kind else {
                    unreachable!("stream task for non-stream")
                };
                let mut em = crate::flowlet::Emitter::new(&mut out);
                let more = s.epoch(&shared.ctx, epoch, &mut em);
                stream = Some((epoch, more));
            }
            Task::MapBin { ack, bin, .. } => {
                let FlowletKind::Map(m) = kind else {
                    unreachable!("map task for non-map")
                };
                records_in = bin.len() as u64;
                shared.audit_consume(&bin);
                let mut em = crate::flowlet::Emitter::new(&mut out);
                for (_hash, key, value) in bin.frame.iter() {
                    m.map(&shared.ctx, key, value, &mut em);
                }
                ack_to = ack;
            }
            Task::PartialFold { ack, bin, .. } => {
                let FlowletKind::PartialReduce(r) = kind else {
                    unreachable!("partial task for non-partial")
                };
                records_in = bin.len() as u64;
                shared.audit_consume(&bin);
                // Partial reduce IS the reduce stage for partial-only
                // topologies (the histogram family): record the
                // consume hop so sampled lineage ends at a reducer.
                // Local-edge folds (pre-shuffle combines) are not a
                // reduce ingest and stay hop-free.
                if matches!(
                    shared.graph.edges[bin.edge].exchange,
                    crate::graph::Exchange::Hash
                ) {
                    shared.stats_consume(&bin, flowlet);
                }
                let state = shared.partial[flowlet]
                    .as_ref()
                    .expect("partial state exists");
                state.fold_bin(worker_id, r.as_ref(), &bin);
                ack_to = ack;
            }
            Task::ReduceIngest { ack, bin, .. } => {
                records_in = bin.len() as u64;
                shared.audit_consume(&bin);
                shared.stats_consume(&bin, flowlet);
                let state = shared.reduce[flowlet]
                    .lock()
                    .clone()
                    .expect("reduce state exists");
                state.ingest(worker_id, &bin).expect("spill failed");
                ack_to = ack;
            }
            Task::FireReduce { mut shard, .. } => {
                let FlowletKind::Reduce(r) = kind else {
                    unreachable!("fire task for non-reduce")
                };
                while let Some((key, values)) = shard.next_group() {
                    // Not counted as records_in: these records were
                    // already counted when their bins were ingested.
                    let mut em = crate::flowlet::Emitter::new(&mut out);
                    let mut iter = values.into_iter();
                    r.reduce(&shared.ctx, &key, &mut iter, &mut em);
                }
            }
            Task::FirePartial { entries, .. } => {
                let FlowletKind::PartialReduce(r) = kind else {
                    unreachable!("fire task for non-partial")
                };
                for (key, acc) in entries {
                    // Accumulators, not input records; skip records_in.
                    let mut em = crate::flowlet::Emitter::new(&mut out);
                    r.finish(&shared.ctx, &key, acc, &mut em);
                }
            }
        }
        let (bins, captured, combined) = out.into_parts_stats();
        (bins, captured, records_in, ack_to, stream, combined)
    }));
    match result {
        Ok((bins, captured, records_in, ack_to, stream, combined)) => {
            done.records_out = bins.iter().map(|(_, b)| b.len() as u64).sum();
            done.bins = bins;
            done.captured = captured;
            done.records_in = records_in;
            done.ack_to = ack_to;
            done.stream = stream;
            done.combined = combined;
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "flowlet task panicked".to_string());
            done.panic = Some(msg);
        }
    }
    done.duration = start.elapsed();
    shared.busy_gauge.sub(1);
    shared.tracer.emit(
        shared.ctx.node as u32,
        worker_id as u32,
        EventKind::TaskEnd {
            task: trace_kind,
            flowlet: flowlet as u32,
            records_in: done.records_in,
            records_out: done.records_out,
        },
    );
    done
}

/// Send the acknowledgement and ship (or defer) the bins of a finished
/// task, draining `done` of both so the runtime thread only does state
/// bookkeeping. This is the node's only egress for task output, called
/// by the executing thread itself: under work stealing that is the
/// worker, so egress never waits on the runtime loop; under the
/// deterministic scheduler it is the runtime thread, inline.
fn ship_done(flow: &FlowControl, endpoint: &Endpoint<NetMsg>, lane: u32, done: &mut TaskDone) {
    if done.panic.is_some() {
        // Keep the ack and bins unshipped; the runtime aborts the job.
        return;
    }
    if let Some((origin, edge)) = done.ack_to.take() {
        let _ = endpoint.send(origin, NetMsg::Ack { edge });
    }
    for (dst, bin) in done.bins.drain(..) {
        flow.ship_or_defer(lane, done.flowlet, dst, bin);
    }
}

/// Work-stealing worker: fetch from the pool (own deque → injector →
/// steal sweep), execute, ship results directly, park bounded when the
/// node is drained.
fn ws_worker_loop(
    worker: usize,
    shared: Arc<WorkerShared>,
    pool: Arc<Pool<Task>>,
    flow: Arc<FlowControl>,
    endpoint: Endpoint<NetMsg>,
    done_tx: Sender<TaskDone>,
) {
    let node = shared.ctx.node as u32;
    let lane = worker as u32;
    loop {
        match pool.try_fetch(worker) {
            Some((task, src)) => {
                if let Source::Stolen { victim } = src {
                    shared.tracer.emit(
                        node,
                        lane,
                        EventKind::TaskStolen {
                            thief: lane,
                            victim: victim as u32,
                            flowlet: task.flowlet() as u32,
                        },
                    );
                }
                let mut done = execute_task(&shared, worker, task);
                ship_done(&flow, &endpoint, lane, &mut done);
                if done_tx.send(done).is_err() {
                    return;
                }
            }
            None => {
                if pool.is_shutdown() {
                    return;
                }
                shared.tracer.emit(node, lane, EventKind::WorkerParked);
                let parked = pool.park(worker);
                shared.tracer.emit(
                    node,
                    lane,
                    EventKind::WorkerUnparked {
                        parked_us: parked.as_micros() as u64,
                    },
                );
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Active,
    FiringReduce,
    FiringPartial,
    FlushingEpoch(u64),
    Complete,
}

/// Per-flowlet scheduling state on this node.
struct Instance {
    pending: VecDeque<Work>,
    /// Barrier-mode holding pen for bins that arrived before input
    /// completion.
    held: Vec<Work>,
    complete_seen: usize,
    input_expected: usize,
    markers: HashMap<u64, usize>,
    running: usize,
    phase: Phase,
    // loader
    splits_total: usize,
    splits_next: usize,
    splits_done: usize,
    loader_running: usize,
    // stream
    stream_epoch: u64,
    stream_task_out: bool,
    marker_owed: Option<u64>,
    stream_finished: bool,
    fire_left: usize,
}

impl Instance {
    fn input_done(&self) -> bool {
        self.complete_seen == self.input_expected
    }
}

/// What a node hands back to the driver.
pub(crate) struct NodeOutcome {
    pub node: NodeId,
    pub captured: HashMap<FlowletId, Vec<Record>>,
    pub flowlets: Vec<FlowletMetrics>,
    pub node_metrics: NodeMetrics,
    pub error: Option<String>,
    /// Pinned frame clones captured on cache-filling edges, keyed by
    /// (edge, destination node). The driver groups them per flowlet and
    /// inserts them into the cluster's [`crate::resident::ResidentStore`].
    pub fill: Vec<(EdgeId, NodeId, hamr_codec::Frame)>,
}

/// Runs one node's runtime to completion. Called on its own thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_node(
    node: NodeId,
    graph: Arc<JobGraph>,
    cfg: RuntimeConfig,
    threads: usize,
    ctx: TaskContext,
    endpoint: Endpoint<NetMsg>,
    inbox: Receiver<Envelope<NetMsg>>,
    tracer: Tracer,
    registry: MetricsRegistry,
    audit: Audit,
    skew: Arc<SkewRuntime>,
    plan: Arc<CachePlan>,
    stats: Option<Arc<StatsPlane>>,
) -> NodeOutcome {
    NodeRuntime::new(
        node, graph, cfg, threads, ctx, endpoint, inbox, tracer, &registry, audit, skew, plan,
        stats,
    )
    .run()
}

/// The task execution backend, selected by [`SchedMode`].
enum Exec {
    /// Per-worker deques + injector; workers ship their own results.
    WorkStealing {
        pool: Arc<Pool<Task>>,
        workers: Vec<std::thread::JoinHandle<()>>,
    },
    /// Seeded single-threaded replay: ready tasks accumulate here and
    /// an LCG picks which runs next, inline on the runtime thread.
    Deterministic {
        ready: Vec<Task>,
        rng: u64,
        next_worker: usize,
    },
}

struct NodeRuntime {
    node: NodeId,
    nodes: usize,
    graph: Arc<JobGraph>,
    cfg: RuntimeConfig,
    threads: usize,
    endpoint: Endpoint<NetMsg>,
    inbox: Receiver<Envelope<NetMsg>>,
    exec: Exec,
    done_rx: Receiver<TaskDone>,
    shared: Arc<WorkerShared>,
    instances: Vec<Instance>,
    /// Outbound windows + deferred queue, shared with workers under
    /// work stealing.
    flow: Arc<FlowControl>,
    outstanding: usize,
    captured: HashMap<FlowletId, Vec<Record>>,
    fmetrics: Vec<FlowletMetrics>,
    nmetrics: NodeMetrics,
    busy: Duration,
    start: Instant,
    error: Option<String>,
    tracer: Tracer,
    /// Registry gauges: per-flowlet bin-queue depth, indexed by flowlet.
    queue_gauges: Vec<Gauge>,
    /// Registry gauge: bytes resident in queued (pending + held) bins.
    pending_bytes_gauge: Gauge,
    /// Resident-cache plan for this job: which flowlets serve from the
    /// store and which edges fill it.
    plan: Arc<CachePlan>,
}

impl NodeRuntime {
    #[allow(clippy::too_many_arguments)]
    fn new(
        node: NodeId,
        graph: Arc<JobGraph>,
        cfg: RuntimeConfig,
        threads: usize,
        ctx: TaskContext,
        endpoint: Endpoint<NetMsg>,
        inbox: Receiver<Envelope<NetMsg>>,
        tracer: Tracer,
        registry: &MetricsRegistry,
        audit: Audit,
        skew: Arc<SkewRuntime>,
        plan: Arc<CachePlan>,
        stats: Option<Arc<StatsPlane>>,
    ) -> Self {
        let nodes = ctx.nodes;
        let labels = || Labels::new().engine("hamr").node(node as u32);
        let fire_shards = if cfg.fire_shards == 0 {
            threads
        } else {
            cfg.fire_shards
        };
        // Per-flowlet worker-visible state.
        let mut partial = Vec::with_capacity(graph.flowlets.len());
        let mut reduce = Vec::with_capacity(graph.flowlets.len());
        for (id, def) in graph.flowlets.iter().enumerate() {
            partial.push(match def.kind {
                FlowletKind::PartialReduce(_) => {
                    Some(Arc::new(PartialState::new(cfg.contention, threads)))
                }
                _ => None,
            });
            reduce.push(Mutex::new(match def.kind {
                FlowletKind::Reduce(_) => Some(Arc::new(ReduceState::new(
                    fire_shards,
                    cfg.memory_budget,
                    ctx.disk.clone(),
                    format!("hamr.spill.f{id}"),
                    tracer.clone(),
                    node as u32,
                    id as u32,
                    registry.gauge("reduce_resident_bytes", labels().flowlet(id as u32)),
                ))),
                _ => None,
            }));
        }
        // A constant gauge alongside workers_busy, so occupancy
        // (busy/workers) is computable from a single /metrics scrape.
        registry.gauge("workers", labels()).set(threads as i64);
        let fill =
            (!plan.fill.is_empty()).then(|| Arc::new(FillSink::new(plan.fill_edges.clone())));
        let shared = Arc::new(WorkerShared {
            graph: Arc::clone(&graph),
            ctx: ctx.clone(),
            bin_capacity: cfg.bin_capacity,
            partial,
            reduce,
            tracer: tracer.clone(),
            audit: audit.clone(),
            busy_gauge: registry.gauge("workers_busy", labels()),
            skew,
            fill,
            stats,
        });
        let flow = Arc::new(FlowControl::new(
            node,
            nodes,
            cfg.out_window_bins,
            graph.edges.len(),
            graph.flowlets.len(),
            endpoint.clone(),
            tracer.clone(),
            audit,
            registry,
        ));
        let queue_gauges = (0..graph.flowlets.len())
            .map(|f| registry.gauge("queue_depth", labels().flowlet(f as u32)))
            .collect();
        let pending_bytes_gauge = registry.gauge("pending_bin_bytes", labels());
        let (done_tx, done_rx) = unbounded::<TaskDone>();
        let exec = match cfg.sched {
            SchedMode::WorkStealing => {
                let pool = Arc::new(Pool::new(threads));
                let workers = (0..threads)
                    .map(|w| {
                        let shared = Arc::clone(&shared);
                        let pool = Arc::clone(&pool);
                        let flow = Arc::clone(&flow);
                        let endpoint = endpoint.clone();
                        let tx = done_tx.clone();
                        std::thread::Builder::new()
                            .name(format!("hamr-n{node}-w{w}"))
                            .spawn(move || ws_worker_loop(w, shared, pool, flow, endpoint, tx))
                            .expect("spawn worker")
                    })
                    .collect();
                Exec::WorkStealing { pool, workers }
            }
            SchedMode::Deterministic { seed } => Exec::Deterministic {
                // Splitmix-style scramble so seed 0 and per-node offsets
                // still give distinct streams.
                rng: seed
                    .wrapping_add(node as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    | 1,
                ready: Vec::new(),
                next_worker: 0,
            },
        };
        // Build per-flowlet instances.
        let instances = graph
            .flowlets
            .iter()
            .enumerate()
            .map(|(f, def)| {
                // A flowlet served from the resident store runs zero
                // loader splits: its cached frames are injected into
                // the local consumer queues before the loop starts, and
                // the 0-split loader completes (broadcasting
                // EdgeComplete) on the first pump pass.
                let splits_total = if plan.serves(f) {
                    0
                } else {
                    match &def.kind {
                        FlowletKind::Loader(l) => l.split_count(&ctx),
                        _ => 0,
                    }
                };
                Instance {
                    pending: VecDeque::new(),
                    held: Vec::new(),
                    complete_seen: 0,
                    input_expected: def.in_edges.len() * nodes,
                    markers: HashMap::new(),
                    running: 0,
                    phase: Phase::Active,
                    splits_total,
                    splits_next: 0,
                    splits_done: 0,
                    loader_running: 0,
                    stream_epoch: 0,
                    stream_task_out: false,
                    marker_owed: None,
                    stream_finished: false,
                    fire_left: 0,
                }
            })
            .collect();
        let fmetrics = graph
            .flowlets
            .iter()
            .map(|def| FlowletMetrics {
                name: def.name.clone(),
                kind: def.kind.kind_name(),
                ..Default::default()
            })
            .collect();
        NodeRuntime {
            node,
            nodes,
            graph,
            cfg,
            threads,
            endpoint,
            inbox,
            exec,
            done_rx,
            shared,
            instances,
            flow,
            outstanding: 0,
            captured: HashMap::new(),
            fmetrics,
            nmetrics: NodeMetrics::default(),
            busy: Duration::ZERO,
            start: Instant::now(),
            error: None,
            tracer,
            queue_gauges,
            pending_bytes_gauge,
            plan,
        }
    }

    /// Inject every served flowlet's cached frames into the local
    /// consumer queues, with full ledger custody: a resident hit is a
    /// local delivery, so Emit, Ship, and Deliver are recorded here at
    /// this node (the consuming task records Consume as usual) and the
    /// conservation check emit == ship == deliver == consume still
    /// balances. No fabric send happens, so `shuffled_bytes` (remote
    /// fabric traffic) drops to zero for these edges.
    fn inject_served(&mut self) {
        let graph = Arc::clone(&self.graph);
        let plan = Arc::clone(&self.plan);
        for (&f, hit) in &plan.serve {
            for (port, &edge) in graph.flowlets[f].out_edges.iter().enumerate() {
                let dst = graph.edges[edge].dst;
                for frame in &hit.ports[port][self.node] {
                    let mut bin = FrameBin::new(edge, frame.clone());
                    for stage in [AuditStage::Emit, AuditStage::Ship, AuditStage::Deliver] {
                        self.shared.audit.record(
                            stage,
                            edge as u32,
                            self.node as u32,
                            bin.len() as u64,
                            bin.payload_bytes() as u64,
                        );
                    }
                    bin.span = self.tracer.next_span();
                    self.nmetrics.bins_in += 1;
                    self.nmetrics.records_in += bin.len() as u64;
                    self.nmetrics.spanned_bins_in += u64::from(bin.span != NO_SPAN);
                    self.tracer.emit(
                        self.node as u32,
                        WORKER_RUNTIME,
                        EventKind::BinIngress {
                            flowlet: dst as u32,
                            edge: edge as u32,
                            from: self.node as u32,
                            span: bin.span,
                        },
                    );
                    self.queue_gauges[dst].add(1);
                    self.pending_bytes_gauge.add(bin.payload_bytes() as i64);
                    // Pre-acked: nothing was shipped, so there is no
                    // flow-control window slot to release.
                    self.instances[dst].pending.push_back(Work::Bin {
                        from: self.node,
                        acked: true,
                        bin,
                    });
                }
            }
        }
    }

    fn run(mut self) -> NodeOutcome {
        self.inject_served();
        let done_rx = self.done_rx.clone();
        let inbox = self.inbox.clone();
        let mut last_progress = Instant::now();
        loop {
            let mut progressed = false;
            while let Ok(done) = done_rx.try_recv() {
                self.handle_done(done);
                progressed = true;
            }
            while let Ok(env) = inbox.try_recv() {
                self.handle_msg(env);
                progressed = true;
            }
            if self.error.is_some() {
                break;
            }
            self.pump();
            if self.deterministic_step() {
                progressed = true;
            }
            if self.all_complete() {
                break;
            }
            if progressed {
                last_progress = Instant::now();
                continue;
            }
            if last_progress.elapsed() > Duration::from_secs(300) {
                self.error = Some(format!(
                    "node {} runtime stalled for 300s (scheduler bug or deadlock): {}",
                    self.node,
                    self.stall_report()
                ));
                break;
            }
            // Nothing to do right now: block for the next event.
            crossbeam::channel::select! {
                recv(done_rx) -> d => {
                    if let Ok(done) = d { self.handle_done(done); last_progress = Instant::now(); }
                }
                recv(inbox) -> m => {
                    if let Ok(env) = m { self.handle_msg(env); last_progress = Instant::now(); }
                }
                default(Duration::from_millis(20)) => {}
            }
        }
        // Tear down the execution backend and collect scheduler stats.
        let exec = std::mem::replace(
            &mut self.exec,
            Exec::Deterministic {
                ready: Vec::new(),
                rng: 0,
                next_worker: 0,
            },
        );
        match exec {
            Exec::WorkStealing { pool, mut workers } => {
                pool.shutdown();
                for w in workers.drain(..) {
                    let _ = w.join();
                }
                for w in 0..pool.workers() {
                    self.nmetrics.steals += pool.steals(w);
                    self.nmetrics.stolen_tasks += pool.stolen_tasks(w);
                    self.nmetrics.tasks_per_worker.push(pool.tasks(w));
                    self.nmetrics.park_per_worker.push(pool.park_time(w));
                }
            }
            Exec::Deterministic { .. } => {}
        }
        // Flow-control counters accumulated off the runtime thread.
        self.flow.fold_into(&mut self.fmetrics);
        self.nmetrics.busy = self.busy;
        self.nmetrics.elapsed = self.start.elapsed();
        // Workers are joined; the fill sink is no longer contended.
        let fill = self
            .shared
            .fill
            .as_ref()
            .map(|s| s.drain())
            .unwrap_or_default();
        NodeOutcome {
            node: self.node,
            captured: std::mem::take(&mut self.captured),
            flowlets: std::mem::take(&mut self.fmetrics),
            node_metrics: std::mem::take(&mut self.nmetrics),
            error: self.error.take(),
            fill,
        }
    }

    /// Deterministic mode: run one seeded-random ready task inline on
    /// the runtime thread. Returns true if a task ran. No-op in the
    /// threaded modes.
    fn deterministic_step(&mut self) -> bool {
        let threads = self.threads;
        let (task, worker) = match &mut self.exec {
            Exec::Deterministic {
                ready,
                rng,
                next_worker,
            } if !ready.is_empty() => {
                *rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let idx = ((*rng >> 33) as usize) % ready.len();
                let task = ready.swap_remove(idx);
                let worker = *next_worker;
                *next_worker = (*next_worker + 1) % threads;
                (task, worker)
            }
            _ => return false,
        };
        let mut done = execute_task(&self.shared, worker, task);
        ship_done(&self.flow, &self.endpoint, WORKER_RUNTIME, &mut done);
        self.handle_done(done);
        true
    }

    fn stall_report(&self) -> String {
        let mut parts = Vec::new();
        for (id, inst) in self.instances.iter().enumerate() {
            if inst.phase != Phase::Complete {
                parts.push(format!(
                    "f{id}({}) phase={:?} pending={} running={} deferred={} complete_seen={}/{}",
                    self.graph.flowlets[id].name,
                    inst.phase,
                    inst.pending.len(),
                    inst.running,
                    self.flow.deferred_for(id),
                    inst.complete_seen,
                    inst.input_expected,
                ));
            }
        }
        let mut inflight_nonzero = Vec::new();
        for edge in 0..self.graph.edges.len() {
            for dst in 0..self.nodes {
                let v = self.flow.inflight(edge, dst);
                if v > 0 {
                    inflight_nonzero.push((edge, dst, v));
                }
            }
        }
        format!(
            "outstanding={} inflight_nonzero={:?} deferred={} [{}]",
            self.outstanding,
            inflight_nonzero,
            self.flow.total_deferred(),
            parts.join("; ")
        )
    }

    fn all_complete(&self) -> bool {
        self.instances.iter().all(|i| i.phase == Phase::Complete)
    }

    fn handle_msg(&mut self, env: Envelope<NetMsg>) {
        match env.msg {
            NetMsg::Bin(bin) => {
                let dst = self.graph.edges[bin.edge].dst;
                self.nmetrics.bins_in += 1;
                self.nmetrics.records_in += bin.len() as u64;
                self.nmetrics.spanned_bins_in += u64::from(bin.span != NO_SPAN);
                self.tracer.emit(
                    self.node as u32,
                    WORKER_RUNTIME,
                    EventKind::BinIngress {
                        flowlet: dst as u32,
                        edge: bin.edge as u32,
                        from: env.from as u32,
                        span: bin.span,
                    },
                );
                self.queue_gauges[dst].add(1);
                self.pending_bytes_gauge.add(bin.payload_bytes() as i64);
                self.instances[dst].pending.push_back(Work::Bin {
                    from: env.from,
                    acked: false,
                    bin,
                });
            }
            NetMsg::EdgeComplete { edge } => {
                let dst = self.graph.edges[edge].dst;
                self.instances[dst].pending.push_back(Work::Complete);
            }
            NetMsg::Marker { edge, epoch } => {
                let dst = self.graph.edges[edge].dst;
                self.instances[dst]
                    .pending
                    .push_back(Work::Marker { epoch });
            }
            NetMsg::Ack { edge } => {
                // Fault injection: a node that drops acks never opens
                // its windows, so with a small window and a skewed input
                // the producers wedge into a true backpressure deadlock.
                if matches!(self.cfg.fault, FaultInjection::DropAcks { node } if node == self.node)
                {
                    return;
                }
                self.flow.on_ack(edge, env.from, WORKER_RUNTIME);
            }
            NetMsg::Abort { reason } => {
                self.error = Some(format!("aborted: {reason}"));
            }
        }
    }

    fn handle_done(&mut self, done: TaskDone) {
        self.outstanding -= 1;
        self.busy += done.duration;
        if let Some(msg) = done.panic {
            let reason = Arc::new(format!(
                "flowlet '{}' on node {}: {}",
                self.graph.flowlets[done.flowlet].name, self.node, msg
            ));
            // Tell everyone. Our own loopback Abort is harmless — we
            // already stop via `error` below.
            for dst in 0..self.nodes {
                let _ = self.endpoint.send(
                    dst,
                    NetMsg::Abort {
                        reason: Arc::clone(&reason),
                    },
                );
            }
            self.error = Some(reason.to_string());
            return;
        }
        let f = done.flowlet;
        {
            let inst = &mut self.instances[f];
            inst.running -= 1;
            if done.is_loader_split {
                inst.loader_running -= 1;
                inst.splits_done += 1;
            }
            if done.is_fire {
                inst.fire_left -= 1;
            }
            if let Some((epoch, more)) = done.stream {
                inst.stream_task_out = false;
                inst.marker_owed = Some(epoch);
                if !more {
                    inst.stream_finished = true;
                }
            }
        }
        let fm = &mut self.fmetrics[f];
        fm.tasks += 1;
        fm.records_in += done.records_in;
        // Combined records were real map output that the combiner folded
        // away before shipping; restore them so records_out stays
        // comparable with mapred's pre-combiner shuffle counts.
        fm.records_out += done.records_out + done.combined;
        fm.combined_records += done.combined;
        fm.busy += done.duration;
        fm.task_latency.record(done.duration);
        if !done.captured.is_empty() {
            self.captured.entry(f).or_default().extend(done.captured);
        }
        debug_assert!(
            done.ack_to.is_none() && done.bins.is_empty(),
            "task output reached the runtime thread unshipped"
        );
    }

    fn dispatch(&mut self, task: Task) {
        let f = task.flowlet();
        self.instances[f].running += 1;
        self.outstanding += 1;
        match &mut self.exec {
            Exec::WorkStealing { pool, .. } => pool.submit(task),
            Exec::Deterministic { ready, .. } => ready.push(task),
        }
    }

    /// Dispatch a burst of related tasks (a reduce fire's shards) in
    /// one submission, so under work stealing the whole pool wakes at
    /// once instead of one worker per round-robin token.
    fn dispatch_batch(&mut self, tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        for t in &tasks {
            self.instances[t.flowlet()].running += 1;
            self.outstanding += 1;
        }
        match &mut self.exec {
            Exec::WorkStealing { pool, .. } => pool.submit_batch(tasks),
            Exec::Deterministic { ready, .. } => ready.extend(tasks),
        }
    }

    /// Capacity for admitting more tasks right now: four per worker
    /// under either backend, because queued tasks sit in per-worker
    /// deques where idle peers can steal them, and `defer_high_water`
    /// still bounds memory.
    fn has_capacity(&self) -> bool {
        self.outstanding < self.threads * 4
    }

    fn pump(&mut self) {
        // Walk flowlets in topological order so upstream work is
        // admitted first within one pass.
        for i in 0..self.graph.topo.len() {
            let f = self.graph.topo[i];
            if self.instances[f].phase == Phase::Complete {
                continue;
            }
            let graph = Arc::clone(&self.graph);
            match graph.flowlets[f].kind {
                FlowletKind::Loader(_) => self.pump_loader(f),
                FlowletKind::Stream(_) => self.pump_stream(f),
                _ => self.pump_inner(f),
            }
            self.check_transition(f);
        }
    }

    fn pump_loader(&mut self, f: FlowletId) {
        loop {
            let inst = &self.instances[f];
            if inst.phase != Phase::Active
                || inst.splits_next >= inst.splits_total
                || inst.loader_running >= self.cfg.loader_concurrency
                || self.flow.deferred_for(f) > 0
                || self.flow.total_deferred() >= self.cfg.defer_high_water
                || !self.has_capacity()
            {
                return;
            }
            let index = self.instances[f].splits_next;
            self.instances[f].splits_next += 1;
            self.instances[f].loader_running += 1;
            self.dispatch(Task::LoaderSplit { flowlet: f, index });
        }
    }

    fn pump_stream(&mut self, f: FlowletId) {
        // An owed marker goes out once the epoch's bins have all shipped.
        let owed = {
            let inst = &self.instances[f];
            match inst.marker_owed {
                Some(epoch) if inst.running == 0 && self.flow.deferred_for(f) == 0 => Some(epoch),
                Some(_) => return, // still flushing the epoch
                None => None,
            }
        };
        if let Some(epoch) = owed {
            self.broadcast_markers(f, epoch);
            let inst = &mut self.instances[f];
            inst.marker_owed = None;
            inst.stream_epoch = epoch + 1;
        }
        let can_start = {
            let inst = &self.instances[f];
            inst.phase == Phase::Active
                && !inst.stream_finished
                && !inst.stream_task_out
                && self.flow.deferred_for(f) == 0
                && self.has_capacity()
        };
        if can_start {
            let epoch = self.instances[f].stream_epoch;
            self.instances[f].stream_task_out = true;
            self.dispatch(Task::StreamEpoch { flowlet: f, epoch });
        }
    }

    fn pump_inner(&mut self, f: FlowletId) {
        if self.instances[f].phase != Phase::Active {
            return;
        }
        enum Action {
            Stop,
            PopComplete,
            HoldBin,
            RunBin,
            CountMarker,
        }
        loop {
            let action = {
                let inst = &self.instances[f];
                let barrier_hold = self.cfg.barrier_mode && !inst.input_done();
                match inst.pending.front() {
                    None => Action::Stop,
                    Some(Work::Complete) => Action::PopComplete,
                    Some(Work::Bin { .. }) => {
                        if barrier_hold {
                            Action::HoldBin
                        } else if self.flow.deferred_for(f) > 0 || !self.has_capacity() {
                            // Suspended by flow control, or pool full.
                            Action::Stop
                        } else {
                            Action::RunBin
                        }
                    }
                    Some(Work::Marker { .. }) => {
                        // Epoch boundary: every earlier bin must be fully
                        // processed and shipped before it can act.
                        if inst.running > 0 || self.flow.deferred_for(f) > 0 {
                            Action::Stop
                        } else {
                            Action::CountMarker
                        }
                    }
                }
            };
            match action {
                Action::Stop => break,
                Action::PopComplete => {
                    let inst = &mut self.instances[f];
                    inst.pending.pop_front();
                    inst.complete_seen += 1;
                    if inst.input_done() && !inst.held.is_empty() {
                        // Barrier mode: release the held bins now.
                        for w in inst.held.drain(..).rev() {
                            inst.pending.push_front(w);
                        }
                    }
                }
                Action::HoldBin => {
                    // Acknowledge on receipt so upstream windows keep
                    // moving while the barrier holds the data.
                    let work = self.instances[f].pending.pop_front().expect("peeked");
                    let work = if let Work::Bin {
                        from,
                        acked: false,
                        bin,
                    } = work
                    {
                        let _ = self.endpoint.send(from, NetMsg::Ack { edge: bin.edge });
                        Work::Bin {
                            from,
                            acked: true,
                            bin,
                        }
                    } else {
                        work
                    };
                    self.instances[f].held.push(work);
                }
                Action::RunBin => {
                    let Some(Work::Bin { from, acked, bin }) =
                        self.instances[f].pending.pop_front()
                    else {
                        unreachable!()
                    };
                    self.queue_gauges[f].sub(1);
                    self.pending_bytes_gauge.sub(bin.payload_bytes() as i64);
                    let ack = if acked { None } else { Some((from, bin.edge)) };
                    let task = match self.flowlet_tag(f) {
                        Tag::Map => Task::MapBin {
                            flowlet: f,
                            ack,
                            bin,
                        },
                        Tag::Partial => Task::PartialFold {
                            flowlet: f,
                            ack,
                            bin,
                        },
                        Tag::Reduce => Task::ReduceIngest {
                            flowlet: f,
                            ack,
                            bin,
                        },
                        Tag::Source => unreachable!("sources have no inputs"),
                    };
                    self.dispatch(task);
                }
                Action::CountMarker => {
                    let Some(Work::Marker { epoch }) = self.instances[f].pending.pop_front() else {
                        unreachable!()
                    };
                    let full = {
                        let inst = &mut self.instances[f];
                        let seen = inst.markers.entry(epoch).or_insert(0);
                        *seen += 1;
                        *seen == inst.input_expected
                    };
                    if full {
                        self.instances[f].markers.remove(&epoch);
                        self.begin_epoch_flush(f, epoch);
                        break;
                    }
                }
            }
        }
    }

    fn flowlet_tag(&self, f: FlowletId) -> Tag {
        match self.graph.flowlets[f].kind {
            FlowletKind::Map(_) => Tag::Map,
            FlowletKind::PartialReduce(_) => Tag::Partial,
            FlowletKind::Reduce(_) => Tag::Reduce,
            FlowletKind::Loader(_) | FlowletKind::Stream(_) => Tag::Source,
        }
    }

    /// Flush a partial reduce's window at an epoch boundary, or simply
    /// forward the marker for stateless flowlets.
    fn begin_epoch_flush(&mut self, f: FlowletId, epoch: u64) {
        let reducer = match &self.graph.flowlets[f].kind {
            FlowletKind::PartialReduce(r) => Some(Arc::clone(r)),
            _ => None,
        };
        match reducer {
            Some(reducer) => {
                let state = self.shared.partial[f].as_ref().expect("state").clone();
                let entries = state.drain(reducer.as_ref());
                let n = self.fire_entries(f, entries);
                self.instances[f].phase = Phase::FlushingEpoch(epoch);
                self.instances[f].fire_left = n;
                if n == 0 {
                    // Nothing buffered this epoch; forward immediately.
                    self.finish_epoch_flush(f, epoch);
                }
            }
            None => {
                // Map (and anything stateless): bins already processed,
                // forward punctuation downstream.
                self.broadcast_markers(f, epoch);
            }
        }
    }

    fn finish_epoch_flush(&mut self, f: FlowletId, epoch: u64) {
        self.broadcast_markers(f, epoch);
        self.instances[f].phase = Phase::Active;
    }

    fn broadcast_markers(&mut self, f: FlowletId, epoch: u64) {
        let graph = Arc::clone(&self.graph);
        for &edge in &graph.flowlets[f].out_edges {
            for dst in 0..self.nodes {
                let _ = self.endpoint.send(dst, NetMsg::Marker { edge, epoch });
            }
        }
    }

    /// Chunk drained accumulator entries into parallel finish tasks.
    /// Returns the number of tasks dispatched.
    fn fire_entries(&mut self, f: FlowletId, mut entries: Vec<(Bytes, AccBox)>) -> usize {
        if entries.is_empty() {
            return 0;
        }
        let shards = if self.cfg.fire_shards == 0 {
            self.threads
        } else {
            self.cfg.fire_shards
        };
        let chunk = entries.len().div_ceil(shards);
        let mut tasks = Vec::new();
        while !entries.is_empty() {
            let rest = entries.split_off(chunk.min(entries.len()));
            let batch = std::mem::replace(&mut entries, rest);
            tasks.push(Task::FirePartial {
                flowlet: f,
                entries: batch,
            });
        }
        let n = tasks.len();
        self.dispatch_batch(tasks);
        n
    }

    /// Advance a flowlet's lifecycle when its current phase has run dry.
    fn check_transition(&mut self, f: FlowletId) {
        let (phase, idle, fire_left) = {
            let inst = &self.instances[f];
            (
                inst.phase,
                inst.running == 0 && self.flow.deferred_for(f) == 0,
                inst.fire_left,
            )
        };
        match phase {
            Phase::Complete => {}
            Phase::Active => {
                let ready = {
                    let inst = &self.instances[f];
                    match self.flowlet_tag(f) {
                        Tag::Source => match self.graph.flowlets[f].kind {
                            FlowletKind::Loader(_) => inst.splits_done == inst.splits_total && idle,
                            _ => inst.stream_finished && inst.marker_owed.is_none() && idle,
                        },
                        _ => inst.input_done() && inst.pending.is_empty() && idle,
                    }
                };
                if !ready {
                    return;
                }
                match self.flowlet_tag(f) {
                    Tag::Reduce => self.fire_reduce(f),
                    Tag::Partial => self.fire_partial(f),
                    _ => self.begin_complete(f),
                }
            }
            Phase::FiringReduce | Phase::FiringPartial => {
                if fire_left == 0 && idle {
                    self.begin_complete(f);
                }
            }
            Phase::FlushingEpoch(epoch) => {
                if fire_left == 0 && idle {
                    self.finish_epoch_flush(f, epoch);
                }
            }
        }
    }

    fn fire_reduce(&mut self, f: FlowletId) {
        // Take exclusive ownership of the collected state; every ingest
        // task has finished (running == 0), so ours is the last Arc.
        let state_arc = self.shared.reduce[f]
            .lock()
            .take()
            .expect("reduce state present at fire");
        let state = Arc::try_unwrap(state_arc)
            .unwrap_or_else(|_| panic!("reduce state still shared at fire"));
        self.fmetrics[f].spilled_bytes += state.spilled_bytes();
        match state.into_fire_shards() {
            Ok(shards) => {
                // Empty shards would only inflate task/steal counts;
                // skip them before dispatch.
                let tasks: Vec<Task> = shards
                    .into_iter()
                    .filter(|s| !s.is_empty())
                    .map(|shard| Task::FireReduce { flowlet: f, shard })
                    .collect();
                let n = tasks.len();
                self.tracer.emit(
                    self.node as u32,
                    WORKER_RUNTIME,
                    EventKind::ReduceFire {
                        flowlet: f as u32,
                        shards: n as u32,
                    },
                );
                self.dispatch_batch(tasks);
                self.instances[f].phase = Phase::FiringReduce;
                self.instances[f].fire_left = n;
                if n == 0 {
                    self.begin_complete(f);
                }
            }
            Err(e) => {
                self.error = Some(format!("reduce fire failed: {e}"));
            }
        }
    }

    fn fire_partial(&mut self, f: FlowletId) {
        let FlowletKind::PartialReduce(ref r) = self.graph.flowlets[f].kind else {
            unreachable!()
        };
        let reducer = Arc::clone(r);
        let state = self.shared.partial[f].as_ref().expect("state").clone();
        let entries = state.drain(reducer.as_ref());
        let n = self.fire_entries(f, entries);
        self.instances[f].phase = Phase::FiringPartial;
        self.instances[f].fire_left = n;
        if n == 0 {
            self.begin_complete(f);
        }
    }

    /// Broadcast completion on every out-edge and retire the flowlet.
    fn begin_complete(&mut self, f: FlowletId) {
        // Fault injection: swallow the completion broadcast so every
        // downstream consumer waits forever on this node's EdgeComplete
        // — a pure hang with all workers idle.
        let swallow = matches!(self.cfg.fault, FaultInjection::SwallowEdgeComplete { node } if node == self.node);
        let graph = Arc::clone(&self.graph);
        if !swallow {
            for &edge in &graph.flowlets[f].out_edges {
                for dst in 0..self.nodes {
                    let _ = self.endpoint.send(dst, NetMsg::EdgeComplete { edge });
                }
            }
        }
        self.instances[f].phase = Phase::Complete;
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tag {
    Source,
    Map,
    Reduce,
    Partial,
}

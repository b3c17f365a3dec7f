//! The MapReduce job driver: scheduling, phases, and the shuffle.

use crate::maptask::{run_map_task, MapTaskError};
use crate::reducetask::run_reduce_task;
use crate::JobConf;
use crossbeam::channel::Receiver;
use hamr_dfs::{Dfs, DfsError, Split};
use hamr_simdisk::{Disk, DiskError};
use hamr_simnet::{Envelope, Fabric, NetConfig, NetError, NetRegistry, Payload};
use hamr_trace::{
    Audit, AuditBin, AuditReport, AuditStage, EventKind, Gauge, Labels, MetricsRegistry, TaskKind,
    Tracer, NO_SPAN, WORKER_RUNTIME,
};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job and task launch overheads — the JVM/job-submission costs Hadoop
/// pays and HAMR avoids by chaining flowlets in one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupModel {
    /// One-time cost when a job starts (submission, AM spin-up).
    pub job: Duration,
    /// Cost per task launch (container/JVM fork).
    pub task: Duration,
}

impl StartupModel {
    /// No startup costs (correctness tests).
    pub fn instant() -> Self {
        StartupModel {
            job: Duration::ZERO,
            task: Duration::ZERO,
        }
    }

    /// Typical scaled-down costs.
    pub fn modeled(job: Duration, task: Duration) -> Self {
        StartupModel { job, task }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct MrConfig {
    pub nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots: usize,
    /// Map-side sort buffer budget per task (io.sort.mb).
    pub sort_buffer: usize,
    pub net: NetConfig,
    pub startup: StartupModel,
}

impl MrConfig {
    /// Untimed config for correctness tests.
    pub fn local(nodes: usize, slots: usize) -> Self {
        MrConfig {
            nodes,
            map_slots: slots,
            reduce_slots: slots,
            sort_buffer: 4 << 20,
            net: NetConfig::instant(),
            startup: StartupModel::instant(),
        }
    }
}

/// Errors from running a job.
#[derive(Debug)]
pub enum MrError {
    Dfs(DfsError),
    Disk(DiskError),
    Net(NetError),
    TaskPanic(String),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Dfs(e) => write!(f, "dfs: {e}"),
            MrError::Disk(e) => write!(f, "disk: {e}"),
            MrError::Net(e) => write!(f, "net: {e}"),
            MrError::TaskPanic(m) => write!(f, "task panicked: {m}"),
        }
    }
}

impl std::error::Error for MrError {}

impl From<DfsError> for MrError {
    fn from(e: DfsError) -> Self {
        MrError::Dfs(e)
    }
}
impl From<DiskError> for MrError {
    fn from(e: DiskError) -> Self {
        MrError::Disk(e)
    }
}
impl From<NetError> for MrError {
    fn from(e: NetError) -> Self {
        MrError::Net(e)
    }
}
impl From<MapTaskError> for MrError {
    fn from(e: MapTaskError) -> Self {
        match e {
            MapTaskError::Dfs(e) => MrError::Dfs(e),
            MapTaskError::Disk(e) => MrError::Disk(e),
        }
    }
}

/// Measurements from one job run.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    pub name: String,
    pub elapsed: Duration,
    pub map_phase: Duration,
    pub reduce_phase: Duration,
    pub map_tasks: usize,
    /// Map tasks that ran on a node holding their split (locality hits).
    pub local_map_tasks: usize,
    pub reduce_tasks: usize,
    pub map_records_in: u64,
    pub map_records_out: u64,
    pub spills: u64,
    pub spilled_bytes: u64,
    pub shuffled_bytes: u64,
    pub reduce_records_in: u64,
    pub reduce_records_out: u64,
    pub groups: u64,
    pub output_bytes: u64,
    /// Estimated distinct shuffle keys (HLL over reduce-side sketches,
    /// merged across tasks); 0 when `HAMR_STATS=off`. `groups` is the
    /// exact count (reducer key ranges are disjoint), so the pair
    /// doubles as a live sketch-accuracy check.
    pub distinct_keys: u64,
    /// Share of shuffled records carried by the hottest key
    /// (guaranteed SpaceSaving count / records); 0.0 when stats are off.
    pub hot_key_share: f64,
}

impl JobStats {
    /// Fold this job's totals into the unified registry as cumulative
    /// engine-labeled series — the MapReduce counterpart of
    /// `hamr_core::JobMetrics::publish`, sharing metric names where the
    /// semantics match (`shuffled_bytes_total`, `spilled_bytes_total`)
    /// so cross-engine comparisons are one label filter away.
    pub fn publish(&self, registry: &MetricsRegistry, engine: &str) {
        let eng = || Labels::new().engine(engine);
        registry
            .counter("job_runs_total", eng().job(self.name.clone()))
            .inc();
        registry
            .counter("shuffled_bytes_total", eng())
            .add(self.shuffled_bytes);
        registry
            .counter("spilled_bytes_total", eng())
            .add(self.spilled_bytes);
        registry.counter("spills_total", eng()).add(self.spills);
        registry
            .counter("map_tasks_total", eng())
            .add(self.map_tasks as u64);
        registry
            .counter("local_map_tasks_total", eng())
            .add(self.local_map_tasks as u64);
        registry
            .counter("reduce_tasks_total", eng())
            .add(self.reduce_tasks as u64);
        registry
            .counter("map_records_in_total", eng())
            .add(self.map_records_in);
        registry
            .counter("map_records_out_total", eng())
            .add(self.map_records_out);
        registry
            .counter("reduce_records_in_total", eng())
            .add(self.reduce_records_in);
        registry
            .counter("reduce_records_out_total", eng())
            .add(self.reduce_records_out);
        registry
            .counter("output_bytes_total", eng())
            .add(self.output_bytes);
        registry
            .histogram("mr_phase_us", eng())
            .record(self.map_phase.as_micros() as u64);
        registry
            .histogram("mr_phase_us", eng())
            .record(self.reduce_phase.as_micros() as u64);
        if self.distinct_keys > 0 {
            // Same gauge names as the HAMR engine's shuffle rollups, so
            // one label filter compares cardinality across engines.
            registry
                .gauge("stats_shuffle_distinct_keys", eng().job(self.name.clone()))
                .set(self.distinct_keys.min(i64::MAX as u64) as i64);
            registry
                .gauge(
                    "stats_shuffle_hot_key_permille",
                    eng().job(self.name.clone()),
                )
                .set((self.hot_key_share * 1000.0).round() as i64);
        }
    }
}

/// A chunk of map output traveling to a reducer's node.
struct ShuffleMsg {
    reducer: usize,
    data: Arc<Vec<u8>>,
    /// Lineage span id (`NO_SPAN` when tracing is off).
    span: u64,
}

impl Payload for ShuffleMsg {
    fn wire_size(&self) -> usize {
        self.data.len() + 16
    }

    /// Shuffle chunks are the MapReduce analogue of HAMR bins: one
    /// ledger edge (0), no record counts (the engine moves opaque
    /// sorted runs), payload bytes carry the conservation proof.
    fn audit_bin(&self) -> Option<AuditBin> {
        Some(AuditBin {
            edge: 0,
            records: 0,
            bytes: self.data.len() as u64,
        })
    }
}

/// Simple work queue with locality: per-node deques plus stealing.
struct Scheduler {
    queues: Vec<VecDeque<usize>>,
}

impl Scheduler {
    fn new(nodes: usize, tasks: &[Split]) -> Self {
        let mut queues = vec![VecDeque::new(); nodes];
        for (i, split) in tasks.iter().enumerate() {
            let primary = split.locations.first().copied().unwrap_or(i % nodes);
            queues[primary % nodes].push_back(i);
        }
        Scheduler { queues }
    }

    /// Take a local task if any, else steal the longest queue's tail.
    /// Returns (task, was_local).
    fn take(&mut self, node: usize) -> Option<(usize, bool)> {
        if let Some(t) = self.queues[node].pop_front() {
            return Some((t, true));
        }
        let victim = (0..self.queues.len()).max_by_key(|&n| self.queues[n].len())?;
        self.queues[victim].pop_back().map(|t| (t, false))
    }
}

/// The MapReduce engine bound to a cluster's substrates.
pub struct MrCluster {
    config: MrConfig,
    disks: Vec<Disk>,
    dfs: Dfs,
    next_job: AtomicU64,
    /// Ambient profiler: when set, plain [`run`](MrCluster::run) calls
    /// behave as [`run_traced`](MrCluster::run_traced) with this tracer
    /// — mirrors `hamr_core::Cluster` so benchmark harnesses can
    /// profile both engines through the engine-agnostic `Benchmark`
    /// trait.
    profiler: Mutex<Option<Tracer>>,
    /// Ambient audit: when set, plain [`run`](MrCluster::run) calls
    /// tally shuffle custody into a fresh ledger and store the report
    /// in [`last_audit`](MrCluster::last_audit) — the engine-agnostic
    /// counterpart of `hamr_core::Cluster::attach_supervisor`.
    auditing: Mutex<bool>,
    last_audit: Mutex<Option<AuditReport>>,
    /// Unified metrics registry (usually the HAMR cluster's, shared by
    /// the benchmark env so `/metrics` covers both engines): when set,
    /// runs stream net/disk counters and gauges live under
    /// `engine="mapred"`, and publish job totals at completion.
    registry: Mutex<Option<MetricsRegistry>>,
}

impl MrCluster {
    /// Build over existing substrates (shared with the HAMR engine in
    /// benchmarks).
    pub fn new(config: MrConfig, disks: Vec<Disk>, dfs: Dfs) -> Self {
        assert_eq!(disks.len(), config.nodes, "one disk per node");
        assert!(config.map_slots > 0 && config.reduce_slots > 0);
        MrCluster {
            config,
            disks,
            dfs,
            next_job: AtomicU64::new(1),
            profiler: Mutex::new(None),
            auditing: Mutex::new(false),
            last_audit: Mutex::new(None),
            registry: Mutex::new(None),
        }
    }

    /// Publish this engine's metrics into `registry` (typically the
    /// HAMR cluster's, so one `/metrics` endpoint covers both engines)
    /// until [`clear_registry`](MrCluster::clear_registry).
    pub fn set_registry(&self, registry: MetricsRegistry) {
        *self.registry.lock() = Some(registry);
    }

    /// Stop publishing into a shared registry.
    pub fn clear_registry(&self) {
        *self.registry.lock() = None;
    }

    /// Standalone in-memory cluster (tests).
    pub fn in_memory(nodes: usize, slots: usize) -> Self {
        let disks: Vec<Disk> = (0..nodes).map(|_| Disk::new(Default::default())).collect();
        let dfs = Dfs::new(disks.clone(), Default::default());
        MrCluster::new(MrConfig::local(nodes, slots), disks, dfs)
    }

    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    pub fn config(&self) -> &MrConfig {
        &self.config
    }

    /// Run one job to completion. Tracing is disabled unless an
    /// ambient profiler is attached via
    /// [`attach_profiler`](MrCluster::attach_profiler).
    pub fn run(&self, conf: &JobConf) -> Result<JobStats, MrError> {
        let audit = if *self.auditing.lock() {
            Audit::new(1, self.config.nodes as u32)
        } else {
            Audit::disabled()
        };
        let result = self.run_inner(conf, self.ambient_tracer(), audit.clone());
        if audit.enabled() {
            *self.last_audit.lock() = Some(audit.report());
        }
        result
    }

    fn ambient_tracer(&self) -> Tracer {
        self.profiler
            .lock()
            .clone()
            .unwrap_or_else(Tracer::disabled)
    }

    /// Attach an ambient profiler: until
    /// [`detach_profiler`](MrCluster::detach_profiler), every plain
    /// [`run`](MrCluster::run) emits trace events through `tracer`.
    pub fn attach_profiler(&self, tracer: Tracer) {
        *self.profiler.lock() = Some(tracer);
    }

    /// Remove the ambient profiler; subsequent [`run`](MrCluster::run)
    /// calls execute untraced again.
    pub fn detach_profiler(&self) {
        *self.profiler.lock() = None;
    }

    /// Attach ambient auditing: until
    /// [`detach_audit`](MrCluster::detach_audit), every plain
    /// [`run`](MrCluster::run) tallies shuffle custody and stores the
    /// resulting [`AuditReport`] for [`last_audit`](MrCluster::last_audit).
    pub fn attach_audit(&self) {
        *self.auditing.lock() = true;
    }

    /// Stop ambient auditing; subsequent [`run`](MrCluster::run) calls
    /// skip the ledger again.
    pub fn detach_audit(&self) {
        *self.auditing.lock() = false;
    }

    /// The audit report of the most recent audited run, if any.
    pub fn last_audit(&self) -> Option<AuditReport> {
        self.last_audit.lock().clone()
    }

    /// Run one job with a shuffle custody ledger and return the proof
    /// alongside the stats. Every shuffle chunk is tallied at four
    /// custody points — emitted by the map task, shipped onto the
    /// fabric, delivered by the simulated network, consumed by the
    /// reducer-side collector — and the returned
    /// [`AuditReport::check`] proves conservation.
    pub fn run_audited(&self, conf: &JobConf) -> Result<(JobStats, AuditReport), MrError> {
        let audit = Audit::new(1, self.config.nodes as u32);
        let stats = self.run_inner(conf, self.ambient_tracer(), audit.clone())?;
        let report = audit.report();
        *self.last_audit.lock() = Some(report.clone());
        Ok((stats, report))
    }

    /// Run one job to completion, emitting trace events through `tracer`.
    ///
    /// Map and reduce tasks appear as `MrMap`/`MrReduce` spans keyed by
    /// the executing node and slot; flowlet 0 is the map phase and
    /// flowlet 1 the reduce phase. Shuffle traffic shows up as
    /// `NetSend`/`NetDeliver` through the fabric, and task-local disk
    /// activity via each node's disk tracer when attached by the
    /// caller.
    pub fn run_traced(&self, conf: &JobConf, tracer: Tracer) -> Result<JobStats, MrError> {
        self.run_inner(conf, tracer, Audit::disabled())
    }

    fn run_inner(&self, conf: &JobConf, tracer: Tracer, audit: Audit) -> Result<JobStats, MrError> {
        let start = Instant::now();
        let job_id = self.next_job.fetch_add(1, Ordering::Relaxed);
        if !self.config.startup.job.is_zero() {
            std::thread::sleep(self.config.startup.job);
        }
        let nodes = self.config.nodes;
        let reducers = if conf.reducers == 0 {
            nodes
        } else {
            conf.reducers
        };
        // Gather splits across all input paths.
        let mut splits: Vec<Split> = Vec::new();
        for path in &conf.input {
            splits.extend(self.dfs.splits(path)?);
        }
        let map_task_count = splits.len();
        let registry = self.registry.lock().clone();
        let fabric = Fabric::<ShuffleMsg>::new_instrumented(
            nodes,
            self.config.net.clone(),
            tracer.clone(),
            audit.clone(),
            registry
                .as_ref()
                .map(|reg| NetRegistry::new(reg, "mapred", nodes)),
        );
        let active_gauges: Vec<Gauge> = (0..nodes)
            .map(|n| {
                registry
                    .as_ref()
                    .map(|reg| {
                        reg.gauge(
                            "mr_active_tasks",
                            Labels::new().engine("mapred").node(n as u32),
                        )
                    })
                    .unwrap_or_default()
            })
            .collect();
        if tracer.enabled() {
            for (node, disk) in self.disks.iter().enumerate() {
                disk.attach_tracer(tracer.clone(), node as u32);
            }
        }
        if let Some(reg) = &registry {
            for (node, disk) in self.disks.iter().enumerate() {
                disk.attach_registry(reg, "mapred", node as u32);
            }
        }
        let stats = Arc::new(Mutex::new(JobStats {
            name: conf.name.clone(),
            map_tasks: map_task_count,
            reduce_tasks: reducers,
            ..Default::default()
        }));
        let first_error: Arc<Mutex<Option<MrError>>> = Arc::new(Mutex::new(None));

        // --- shuffle receivers (run concurrently with the map phase) --
        let mut recv_handles = Vec::new();
        for node in 0..nodes {
            let local_reducers: Vec<usize> = (0..reducers).filter(|r| r % nodes == node).collect();
            let expected = map_task_count * local_reducers.len();
            let rx = fabric.receiver(node)?;
            let tracer = tracer.clone();
            let audit = audit.clone();
            recv_handles.push(std::thread::spawn(move || {
                collect_chunks(rx, &local_reducers, expected, node, &tracer, &audit)
            }));
        }

        // --- map phase ------------------------------------------------
        let map_start = Instant::now();
        let scheduler = Arc::new(Mutex::new(Scheduler::new(nodes, &splits)));
        let splits = Arc::new(splits);
        let conf_arc = Arc::new(conf.clone());
        let mut map_handles = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for node in 0..nodes {
            for slot in 0..self.config.map_slots {
                let scheduler = Arc::clone(&scheduler);
                let splits = Arc::clone(&splits);
                let conf = Arc::clone(&conf_arc);
                let dfs = self.dfs.clone();
                let disk = self.disks[node].clone();
                let fabric = fabric.clone();
                let stats = Arc::clone(&stats);
                let first_error = Arc::clone(&first_error);
                let startup = self.config.startup;
                let sort_buffer = self.config.sort_buffer;
                let tracer = tracer.clone();
                let audit = audit.clone();
                let active = active_gauges[node].clone();
                map_handles.push(std::thread::spawn(move || {
                    loop {
                        if first_error.lock().is_some() {
                            return;
                        }
                        let Some((task, local)) = scheduler.lock().take(node) else {
                            return;
                        };
                        if !startup.task.is_zero() {
                            std::thread::sleep(startup.task);
                        }
                        active.add(1);
                        tracer.emit(
                            node as u32,
                            slot as u32,
                            EventKind::TaskStart {
                                task: TaskKind::MrMap,
                                flowlet: 0,
                                span: NO_SPAN,
                            },
                        );
                        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            run_map_task(
                                &conf,
                                job_id,
                                task,
                                &splits[task],
                                node,
                                &dfs,
                                &disk,
                                reducers,
                                sort_buffer,
                            )
                        }));
                        active.sub(1);
                        let res = match run {
                            Ok(Ok(res)) => res,
                            Ok(Err(e)) => {
                                first_error.lock().get_or_insert(e.into());
                                return;
                            }
                            Err(p) => {
                                first_error
                                    .lock()
                                    .get_or_insert(MrError::TaskPanic(panic_msg(p)));
                                return;
                            }
                        };
                        tracer.emit(
                            node as u32,
                            slot as u32,
                            EventKind::TaskEnd {
                                task: TaskKind::MrMap,
                                flowlet: 0,
                                records_in: res.records_in,
                                records_out: res.records_out,
                            },
                        );
                        // Serve the shuffle: read each partition file
                        // back (disk) and push it to the reducer's node
                        // (network), then drop the local copy.
                        let mut shuffled = 0u64;
                        for out in &res.outputs {
                            let data = match disk.read_all(&out.file) {
                                Ok(d) => d,
                                Err(e) => {
                                    first_error.lock().get_or_insert(e.into());
                                    return;
                                }
                            };
                            shuffled += out.bytes as u64;
                            let dst = out.partition % fabric.len();
                            let bytes = data.len() as u64;
                            // The map side holds both the emit and ship
                            // custody points: shuffle chunks go straight
                            // from the task to the fabric, with no
                            // flow-control window in between.
                            audit.record(AuditStage::Emit, 0, dst as u32, 0, bytes);
                            audit.record(AuditStage::Ship, 0, dst as u32, 0, bytes);
                            let mut span = NO_SPAN;
                            if tracer.enabled() {
                                // Shuffle chunks get lineage spans just
                                // like HAMR bins: emitted and shipped in
                                // one step (no flow-control window here).
                                span = tracer.next_span();
                                tracer.emit(
                                    node as u32,
                                    slot as u32,
                                    EventKind::BinEmitted {
                                        flowlet: 0,
                                        edge: 0,
                                        dst: dst as u32,
                                        span,
                                        records: 0,
                                    },
                                );
                                tracer.emit(
                                    node as u32,
                                    slot as u32,
                                    EventKind::BinShipped {
                                        flowlet: 0,
                                        edge: 0,
                                        dst: dst as u32,
                                        records: 0,
                                        bytes,
                                        span,
                                    },
                                );
                            }
                            let msg = ShuffleMsg {
                                reducer: out.partition,
                                data,
                                span,
                            };
                            if let Err(e) = fabric.send(node, dst, msg) {
                                first_error.lock().get_or_insert(e.into());
                                return;
                            }
                            disk.delete(&out.file);
                        }
                        let mut s = stats.lock();
                        s.map_records_in += res.records_in;
                        s.map_records_out += res.records_out;
                        s.spills += res.spills as u64;
                        s.spilled_bytes += res.spilled_bytes;
                        s.shuffled_bytes += shuffled;
                        if local {
                            s.local_map_tasks += 1;
                        }
                    }
                }));
            }
        }
        for h in map_handles {
            let _ = h.join();
        }
        stats.lock().map_phase = map_start.elapsed();
        let detach_disks = || {
            if tracer.enabled() {
                for disk in &self.disks {
                    disk.detach_tracer();
                }
            }
            if registry.is_some() {
                for disk in &self.disks {
                    disk.detach_registry();
                }
            }
        };
        if let Some(e) = first_error.lock().take() {
            fabric.shutdown();
            detach_disks();
            return Err(e);
        }

        // --- barrier: wait for every reducer's fetches ----------------
        let mut per_node_chunks = Vec::with_capacity(nodes);
        for h in recv_handles {
            per_node_chunks.push(h.join().expect("receiver thread"));
        }
        fabric.shutdown();

        // --- reduce phase ---------------------------------------------
        let reduce_start = Instant::now();
        // Same env gate as the HAMR engine: sketches fold the shuffle
        // stream on the reduce side, merged across tasks at the end.
        let with_sketch =
            hamr_trace::StatsMode::from_env_str(std::env::var("HAMR_STATS").ok().as_deref())
                .enabled();
        let merged_sketch: Arc<Mutex<Option<hamr_trace::SketchSet>>> = Arc::new(Mutex::new(None));
        let mut reduce_handles = Vec::new();
        for (node, chunk_map) in per_node_chunks.into_iter().enumerate() {
            // Queue of (reducer, chunks) for this node.
            let queue = Arc::new(Mutex::new(chunk_map));
            for slot in 0..self.config.reduce_slots {
                let queue = Arc::clone(&queue);
                let conf = Arc::clone(&conf_arc);
                let dfs = self.dfs.clone();
                let stats = Arc::clone(&stats);
                let first_error = Arc::clone(&first_error);
                let startup = self.config.startup;
                let tracer = tracer.clone();
                let active = active_gauges[node].clone();
                let merged_sketch = Arc::clone(&merged_sketch);
                reduce_handles.push(std::thread::spawn(move || loop {
                    if first_error.lock().is_some() {
                        return;
                    }
                    let Some((r, chunks)) = queue.lock().pop_front() else {
                        return;
                    };
                    if !startup.task.is_zero() {
                        std::thread::sleep(startup.task);
                    }
                    active.add(1);
                    tracer.emit(
                        node as u32,
                        slot as u32,
                        EventKind::TaskStart {
                            task: TaskKind::MrReduce,
                            flowlet: 1,
                            span: NO_SPAN,
                        },
                    );
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        run_reduce_task(&conf, r, node, chunks, &dfs, with_sketch)
                    }));
                    active.sub(1);
                    match run {
                        Ok(Ok(res)) => {
                            tracer.emit(
                                node as u32,
                                slot as u32,
                                EventKind::TaskEnd {
                                    task: TaskKind::MrReduce,
                                    flowlet: 1,
                                    records_in: res.records_in,
                                    records_out: res.records_out,
                                },
                            );
                            let mut s = stats.lock();
                            s.reduce_records_in += res.records_in;
                            s.reduce_records_out += res.records_out;
                            s.groups += res.groups;
                            s.output_bytes += res.output_bytes;
                            drop(s);
                            if let Some(sk) = res.sketch {
                                let mut m = merged_sketch.lock();
                                match m.as_mut() {
                                    Some(acc) => acc.merge(&sk),
                                    None => *m = Some(sk),
                                }
                            }
                        }
                        Ok(Err(e)) => {
                            first_error.lock().get_or_insert(e.into());
                        }
                        Err(p) => {
                            first_error
                                .lock()
                                .get_or_insert(MrError::TaskPanic(panic_msg(p)));
                        }
                    }
                }));
            }
        }
        for h in reduce_handles {
            let _ = h.join();
        }
        detach_disks();
        if let Some(e) = first_error.lock().take() {
            return Err(e);
        }
        let mut final_stats = stats.lock().clone();
        final_stats.reduce_phase = reduce_start.elapsed();
        final_stats.elapsed = start.elapsed();
        if let Some(sk) = merged_sketch.lock().as_ref() {
            final_stats.distinct_keys = sk.distinct();
            final_stats.hot_key_share = sk.hot_share();
        }
        if let Some(reg) = &registry {
            final_stats.publish(reg, "mapred");
            reg.epoch_snapshot(&final_stats.name);
        }
        Ok(final_stats)
    }
}

/// Receive `expected` shuffle chunks, bucketed per local reducer.
fn collect_chunks(
    rx: Receiver<Envelope<ShuffleMsg>>,
    local_reducers: &[usize],
    expected: usize,
    node: usize,
    tracer: &Tracer,
    audit: &Audit,
) -> VecDeque<(usize, Vec<Arc<Vec<u8>>>)> {
    let mut buckets: std::collections::HashMap<usize, Vec<Arc<Vec<u8>>>> =
        local_reducers.iter().map(|&r| (r, Vec::new())).collect();
    let mut received = 0;
    while received < expected {
        let Ok(env) = rx.recv() else {
            break; // fabric shut down early (error path)
        };
        tracer.emit(
            node as u32,
            WORKER_RUNTIME,
            EventKind::BinIngress {
                flowlet: 1,
                edge: 0,
                from: env.from as u32,
                span: env.msg.span,
            },
        );
        if let Some(bucket) = buckets.get_mut(&env.msg.reducer) {
            audit.record(
                AuditStage::Consume,
                0,
                node as u32,
                0,
                env.msg.data.len() as u64,
            );
            bucket.push(env.msg.data);
            received += 1;
        }
    }
    local_reducers
        .iter()
        .map(|&r| (r, buckets.remove(&r).unwrap_or_default()))
        .collect()
}

fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

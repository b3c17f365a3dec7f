//! Cluster and runtime configuration, including the paper's testbed
//! specification (Table 1) and our scaled simulation equivalent.

use hamr_simdisk::DiskConfig;
use hamr_simnet::NetConfig;
use std::time::Duration;

/// How partial-reduce accumulator state is shared among a node's
/// worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionMode {
    /// One shared accumulator map per node behind lock striping — the
    /// paper-faithful design whose contention §5.2 blames for the
    /// HistogramRatings slowdown (32 threads updating 1 variable).
    SharedLocked,
    /// Per-worker accumulator maps merged at completion — the fix the
    /// paper proposes ("enforcing serialization on the variable access").
    Sharded,
}

/// How a node schedules ready flowlet tasks onto its worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Decentralized work stealing (the default): each worker owns a
    /// LIFO deque, steals FIFO from peers when dry, and parks on a
    /// bounded timeout only when the node is drained. The runtime
    /// thread shrinks to an ingress/egress pump.
    WorkStealing,
    /// The pre-refactor control plane: one runtime thread owns all
    /// scheduling state and hands tasks to workers over a shared
    /// channel. Kept as an A/B baseline and differential-test oracle.
    Centralized,
    /// Single-threaded, seeded replay: no worker threads at all; a
    /// seeded PRNG picks the next ready task and runs it inline on the
    /// runtime thread. Deterministic interleaving for differential
    /// tests.
    Deterministic { seed: u64 },
}

impl SchedMode {
    /// Parse the `HAMR_SCHED` environment override used by the CI
    /// matrix: `ws`/`work-stealing`, `centralized`/`central`, or
    /// `det[:seed]`.
    pub fn from_env_str(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ws" | "work-stealing" | "worksteal" | "workstealing" => Some(SchedMode::WorkStealing),
            "centralized" | "central" => Some(SchedMode::Centralized),
            other => {
                let rest = other.strip_prefix("det")?;
                let seed = match rest.strip_prefix(':') {
                    Some(n) => n.parse().ok()?,
                    None if rest.is_empty() => 0,
                    None => return None,
                };
                Some(SchedMode::Deterministic { seed })
            }
        }
    }
}

/// Deliberate runtime sabotage for watchdog / flight-recorder tests.
/// Production configs always use `None`; the other arms re-create the
/// two silent failure modes the self-verification layer must catch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultInjection {
    /// No fault: the engine behaves normally.
    #[default]
    None,
    /// `node` never broadcasts `EdgeComplete` for its finished
    /// flowlets, so downstream flowlets cluster-wide wait forever on an
    /// input that will never be announced complete — a pure *hang*
    /// (all bins move and are consumed; workers go idle).
    SwallowEdgeComplete { node: usize },
    /// `node` drops every flow-control `Ack` it receives, so its send
    /// windows never reopen: with a small `out_window_bins` its
    /// producers defer bins forever — a *backpressure deadlock*.
    DropAcks { node: usize },
}

/// Skew-mitigation switch (see `crate::skew`). The in-node combiner is
/// the one mechanism, and it only ever engages on edges that
/// registered a combiner via `JobBuilder::connect_combined`, so jobs
/// without combiners are byte-for-byte unaffected by either setting.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewConfig {
    /// In-node combining: pre-aggregate duplicate keys inside
    /// `TaskOutput` before bins ship.
    pub combine: bool,
    /// Inert: the engine no longer reads this field. Hot-key splitting
    /// was removed in favour of the combiner; the field remains only so
    /// the benchmark's `split_off` ablation keeps compiling, and goes
    /// when a later benchmark change drops that ablation.
    pub split: bool,
}

impl SkewConfig {
    /// Combining off — the pre-mitigation engine, byte for byte.
    pub fn off() -> Self {
        SkewConfig {
            combine: false,
            split: false,
        }
    }

    /// Parse the `HAMR_SKEW` environment override: `off`/`none` or
    /// `combine`. Unset or unparsable falls back to the default
    /// (combine on).
    pub fn from_env_str(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(SkewConfig::off()),
            "combine" => Some(SkewConfig::default()),
            _ => None,
        }
    }
}

impl Default for SkewConfig {
    fn default() -> Self {
        // Combining is deterministic in effect (checksums are
        // unchanged; see crate::skew) and strictly helps on skewed
        // inputs, so it defaults on.
        SkewConfig {
            combine: true,
            split: false,
        }
    }
}

/// Engine tuning knobs, per node.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Records per bin before the output buffer packs and ships one.
    pub bin_capacity: usize,
    /// Flow-control window: max bins in flight from one node to one
    /// destination node before producers are suspended.
    pub out_window_bins: usize,
    /// Max deferred (backpressured) bins per node before the scheduler
    /// stops admitting new work for producing flowlets.
    pub defer_high_water: usize,
    /// Per-node memory budget for reduce group state; beyond it, state
    /// spills to the local disk as sorted runs.
    pub memory_budget: usize,
    /// Max concurrent loader split tasks per node (the paper throttles
    /// loader concurrency as part of flow control).
    pub loader_concurrency: usize,
    /// Ablation: when true, every flowlet waits for all its inputs to
    /// complete before processing any bin — coarse-grain stage barriers,
    /// i.e. "Hadoop-style" scheduling on the HAMR engine.
    pub barrier_mode: bool,
    /// Partial-reduce state sharing (see [`ContentionMode`]).
    pub contention: ContentionMode,
    /// Number of parallel shards used when firing reduce/partial-reduce
    /// completion work. Defaults to the worker count.
    pub fire_shards: usize,
    /// Task scheduling strategy (see [`SchedMode`]).
    pub sched: SchedMode,
    /// Deliberate sabotage for self-verification tests (see
    /// [`FaultInjection`]). Always `None` outside tests.
    pub fault: FaultInjection,
    /// Skew mitigation switches (see [`SkewConfig`] and `crate::skew`).
    pub skew: SkewConfig,
    /// Data-plane statistics mode (see [`hamr_trace::StatsMode`]):
    /// per-edge streaming sketches and, in `Full`, sampled record
    /// lineage. Sketches observe frames as bins close; they never
    /// influence routing or scheduling.
    pub stats: hamr_trace::StatsMode,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            bin_capacity: 1024,
            out_window_bins: 32,
            defer_high_water: 64,
            memory_budget: 64 << 20,
            loader_concurrency: 2,
            barrier_mode: false,
            contention: ContentionMode::SharedLocked,
            fire_shards: 0, // 0 = use worker count
            // The CI matrix exercises both control planes by exporting
            // HAMR_SCHED; explicit `sched` assignments in code (e.g.
            // the differential tests) are unaffected by the env var.
            sched: std::env::var("HAMR_SCHED")
                .ok()
                .and_then(|s| SchedMode::from_env_str(&s))
                .unwrap_or(SchedMode::WorkStealing),
            fault: FaultInjection::None,
            // Like HAMR_SCHED, HAMR_SKEW=off|combine lets CI ablate the
            // combiner without touching code; explicit assignments
            // override.
            skew: std::env::var("HAMR_SKEW")
                .ok()
                .and_then(|s| SkewConfig::from_env_str(&s))
                .unwrap_or_default(),
            // HAMR_STATS=off|edges|full[:N] — same env-gate idiom as
            // HAMR_SCHED/HAMR_SKEW. Defaults to `edges` (sketches on,
            // lineage sampling off).
            stats: hamr_trace::StatsMode::from_env_str(std::env::var("HAMR_STATS").ok().as_deref()),
        }
    }
}

/// Full description of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Worker threads per node (the paper's nodes ran 32).
    pub threads_per_node: usize,
    /// Network delivery model.
    pub net: NetConfig,
    /// Local-disk timing model (one disk per node).
    pub disk: DiskConfig,
    /// DFS parameters.
    pub dfs: hamr_dfs::DfsConfig,
    /// Engine tuning.
    pub runtime: RuntimeConfig,
}

impl ClusterConfig {
    /// Check the configuration for values the runtime cannot operate
    /// with. Called by [`crate::Cluster::try_new`]; kept public so
    /// harnesses can validate user-supplied configs before spending
    /// time building substrates.
    pub fn validate(&self) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.threads_per_node == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.runtime.bin_capacity == 0 {
            return Err(ConfigError::ZeroBinCapacity);
        }
        if self.runtime.out_window_bins == 0 {
            return Err(ConfigError::ZeroWindow);
        }
        Ok(())
    }

    /// An instant (untimed) cluster for correctness tests: `nodes`
    /// nodes with `threads` workers each, no modeled delays.
    pub fn local(nodes: usize, threads: usize) -> Self {
        ClusterConfig {
            nodes,
            threads_per_node: threads,
            net: NetConfig::instant(),
            disk: DiskConfig::instant(),
            dfs: hamr_dfs::DfsConfig::default(),
            runtime: RuntimeConfig::default(),
        }
    }

    /// The scaled-down stand-in for the paper's testbed used by the
    /// benchmark harness: timing models on, bandwidths scaled to match
    /// the input scale factor.
    pub fn simulated(spec: &SimClusterSpec) -> Self {
        ClusterConfig {
            nodes: spec.nodes,
            threads_per_node: spec.threads_per_node,
            net: NetConfig::modeled(spec.net_latency, spec.net_bandwidth),
            disk: DiskConfig::modeled(spec.disk_bandwidth, spec.disk_op_latency),
            dfs: hamr_dfs::DfsConfig {
                block_size: spec.dfs_block_size,
                replication: 2,
            },
            runtime: RuntimeConfig::default(),
        }
    }
}

/// A cluster specification, used both to document the paper's Table 1
/// and to parameterize our simulation.
#[derive(Debug, Clone)]
pub struct SimClusterSpec {
    pub name: &'static str,
    pub nodes: usize,
    pub threads_per_node: usize,
    pub cpu_desc: &'static str,
    pub memory_desc: &'static str,
    pub net_desc: &'static str,
    pub disk_desc: &'static str,
    /// One-way network latency.
    pub net_latency: Duration,
    /// Per-link network bandwidth, bytes/second.
    pub net_bandwidth: u64,
    /// Per-disk sequential bandwidth, bytes/second.
    pub disk_bandwidth: u64,
    /// Per-IO fixed cost.
    pub disk_op_latency: Duration,
    /// DFS block size.
    pub dfs_block_size: usize,
}

/// Table 1 of the paper: the physical testbed (for documentation; we
/// cannot run on it).
pub const PAPER_CLUSTER: SimClusterSpec = SimClusterSpec {
    name: "paper (Table 1)",
    nodes: 16,
    threads_per_node: 32,
    cpu_desc: "2x Intel Xeon E5-2620 @ 2GHz",
    memory_desc: "32 GB",
    net_desc: "4x FDR InfiniBand",
    disk_desc: "5x SATA-III",
    net_latency: Duration::from_micros(2),
    net_bandwidth: 6_800_000_000,  // ~54.4 Gb/s FDR 4x effective
    disk_bandwidth: 2_000_000_000, // 5 spindles aggregated, optimistic
    disk_op_latency: Duration::from_micros(100),
    dfs_block_size: 128 << 20,
};

/// Our scaled simulation: 8 nodes x 4 threads in one process, with
/// bandwidths scaled down by roughly the same factor as the input data
/// (see EXPERIMENTS.md) so cost *ratios* are preserved.
pub const SCALED_CLUSTER: SimClusterSpec = SimClusterSpec {
    name: "scaled simulation",
    nodes: 8,
    threads_per_node: 4,
    cpu_desc: "host threads",
    memory_desc: "host RAM (budgeted per node)",
    net_desc: "simnet modeled fabric",
    disk_desc: "simdisk modeled spindle",
    net_latency: Duration::from_micros(50),
    net_bandwidth: 200 << 20, // 200 MiB/s per link
    disk_bandwidth: 80 << 20, // 80 MiB/s per node disk
    disk_op_latency: Duration::from_micros(200),
    dfs_block_size: 1 << 20,
};

impl SimClusterSpec {
    /// Render as the rows of Table 1.
    pub fn table_rows(&self) -> Vec<(String, String)> {
        vec![
            ("# of compute nodes".into(), self.nodes.to_string()),
            ("Threads per node".into(), self.threads_per_node.to_string()),
            ("CPU".into(), self.cpu_desc.into()),
            ("Memory".into(), self.memory_desc.into()),
            ("Network".into(), self.net_desc.into()),
            ("Local disks".into(), self.disk_desc.into()),
            ("Net bandwidth (B/s)".into(), self.net_bandwidth.to_string()),
            (
                "Disk bandwidth (B/s)".into(),
                self.disk_bandwidth.to_string(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_config_is_instant() {
        let c = ClusterConfig::local(4, 2);
        assert_eq!(c.nodes, 4);
        assert_eq!(c.threads_per_node, 2);
        assert!(c.net.is_instant());
        assert!(c.disk.is_instant());
        assert!(!c.runtime.barrier_mode);
    }

    #[test]
    fn simulated_config_applies_spec() {
        let c = ClusterConfig::simulated(&SCALED_CLUSTER);
        assert_eq!(c.nodes, 8);
        assert!(!c.net.is_instant());
        assert!(!c.disk.is_instant());
        assert_eq!(c.dfs.block_size, 1 << 20);
    }

    #[test]
    fn table1_rows_render() {
        let rows = PAPER_CLUSTER.table_rows();
        assert_eq!(rows[0].1, "16");
        assert!(rows
            .iter()
            .any(|(k, v)| k.contains("Network") && v.contains("InfiniBand")));
    }

    #[test]
    fn default_runtime_sane() {
        let r = RuntimeConfig::default();
        assert!(r.bin_capacity > 0);
        assert!(r.out_window_bins > 0);
        assert!(r.defer_high_water >= r.out_window_bins);
        assert_eq!(r.contention, ContentionMode::SharedLocked);
    }

    #[test]
    fn sched_mode_env_strings_parse() {
        assert_eq!(SchedMode::from_env_str("ws"), Some(SchedMode::WorkStealing));
        assert_eq!(
            SchedMode::from_env_str("work-stealing"),
            Some(SchedMode::WorkStealing)
        );
        assert_eq!(
            SchedMode::from_env_str("centralized"),
            Some(SchedMode::Centralized)
        );
        assert_eq!(
            SchedMode::from_env_str("det"),
            Some(SchedMode::Deterministic { seed: 0 })
        );
        assert_eq!(
            SchedMode::from_env_str("det:42"),
            Some(SchedMode::Deterministic { seed: 42 })
        );
        assert_eq!(SchedMode::from_env_str("bogus"), None);
        assert_eq!(SchedMode::from_env_str("det:notanumber"), None);
    }

    #[test]
    fn skew_env_strings_parse() {
        assert_eq!(SkewConfig::from_env_str("off"), Some(SkewConfig::off()));
        assert_eq!(SkewConfig::from_env_str("none"), Some(SkewConfig::off()));
        let c = SkewConfig::from_env_str(" Combine ").unwrap();
        assert_eq!(c, SkewConfig::default());
        assert!(c.combine);
        // The removed mechanisms' forms no longer parse, so they fall
        // back to the default like any other unknown value.
        for gone in ["split", "rebalance", "all", "combine,split"] {
            assert_eq!(SkewConfig::from_env_str(gone), None, "{gone}");
        }
        assert_eq!(SkewConfig::from_env_str("bogus"), None);
        assert_eq!(SkewConfig::from_env_str(""), None);
        assert!(!SkewConfig::off().combine);
    }

    #[test]
    fn validate_accepts_sane_config() {
        assert!(ClusterConfig::local(2, 2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_threads() {
        let c = ClusterConfig::local(2, 0);
        assert_eq!(c.validate(), Err(crate::error::ConfigError::ZeroThreads));
    }

    #[test]
    fn validate_rejects_zero_nodes() {
        let c = ClusterConfig::local(0, 2);
        assert_eq!(c.validate(), Err(crate::error::ConfigError::ZeroNodes));
    }

    #[test]
    fn validate_rejects_zero_window_and_bin_capacity() {
        let mut c = ClusterConfig::local(2, 2);
        c.runtime.out_window_bins = 0;
        assert_eq!(c.validate(), Err(crate::error::ConfigError::ZeroWindow));
        let mut c = ClusterConfig::local(2, 2);
        c.runtime.bin_capacity = 0;
        assert_eq!(
            c.validate(),
            Err(crate::error::ConfigError::ZeroBinCapacity)
        );
    }
}

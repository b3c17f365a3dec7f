//! The shared benchmark environment: both engines over one substrate.

use hamr_core::{Cluster, ClusterConfig};
use hamr_dfs::Dfs;
use hamr_mapred::{MrCluster, MrConfig, StartupModel};
use hamr_simdisk::{Disk, DiskConfig};
use hamr_simnet::NetConfig;
use std::time::Duration;

/// Simulation parameters for one benchmark environment.
#[derive(Debug, Clone)]
pub struct SimParams {
    pub nodes: usize,
    pub threads_per_node: usize,
    pub net: NetConfig,
    pub disk: DiskConfig,
    pub dfs_block_size: usize,
    /// Hadoop job/task startup cost model.
    pub startup: StartupModel,
    /// Hadoop map-side sort buffer per task.
    pub sort_buffer: usize,
    /// Input scale factor applied by each benchmark's generator: 1.0
    /// means the harness default size (already ~1/4096 of the paper's).
    pub scale: f64,
    /// RNG seed so runs are reproducible.
    pub seed: u64,
}

impl SimParams {
    /// Untimed small environment for correctness tests.
    pub fn test(nodes: usize, threads: usize) -> Self {
        SimParams {
            nodes,
            threads_per_node: threads,
            net: NetConfig::instant(),
            disk: DiskConfig::instant(),
            dfs_block_size: 64 << 10,
            startup: StartupModel::instant(),
            sort_buffer: 1 << 20,
            scale: 0.05,
            seed: 42,
        }
    }

    /// The scaled stand-in for the paper's testbed (see DESIGN.md):
    /// modeled network/disk/startup costs sized so cost *ratios* match
    /// the scaled-down inputs.
    pub fn paper_scaled() -> Self {
        SimParams {
            nodes: 8,
            threads_per_node: 4,
            // Bandwidths scaled down with the data (~1/4096 of the
            // testbed) so data-proportional costs keep their weight;
            // startup costs scaled the same way (Hadoop job submission
            // ~tens of seconds at full scale -> tens of ms here).
            net: NetConfig::modeled(Duration::from_micros(100), 2 << 20),
            disk: DiskConfig::modeled(6 << 20, Duration::from_micros(150)),
            dfs_block_size: 256 << 10,
            startup: StartupModel::modeled(Duration::from_millis(120), Duration::from_millis(2)),
            sort_buffer: 1 << 20,
            scale: 1.0,
            seed: 2015,
        }
    }

    /// Scale every generator's input size by `s`.
    pub fn with_scale(mut self, s: f64) -> Self {
        self.scale = s;
        self
    }
}

/// Both engines bound to one set of disks and one DFS namespace.
pub struct Env {
    pub params: SimParams,
    pub disks: Vec<Disk>,
    pub dfs: Dfs,
    pub hamr: Cluster,
    pub mr: MrCluster,
}

impl Env {
    pub fn new(params: SimParams) -> Self {
        let disks: Vec<Disk> = (0..params.nodes)
            .map(|_| Disk::new(params.disk.clone()))
            .collect();
        let dfs = Dfs::new(
            disks.clone(),
            hamr_dfs::DfsConfig {
                block_size: params.dfs_block_size,
                replication: 2.min(params.nodes),
            },
        );
        let hamr_config = ClusterConfig {
            nodes: params.nodes,
            threads_per_node: params.threads_per_node,
            net: params.net.clone(),
            disk: params.disk.clone(),
            dfs: hamr_dfs::DfsConfig {
                block_size: params.dfs_block_size,
                replication: 2.min(params.nodes),
            },
            runtime: Default::default(),
        };
        let hamr = Cluster::with_substrates(hamr_config, disks.clone(), dfs.clone());
        let mr_config = MrConfig {
            nodes: params.nodes,
            map_slots: params.threads_per_node,
            reduce_slots: params.threads_per_node,
            sort_buffer: params.sort_buffer,
            net: params.net.clone(),
            startup: params.startup,
        };
        let mr = MrCluster::new(mr_config, disks.clone(), dfs.clone());
        // One introspection plane for the whole environment: the
        // baseline publishes into the HAMR cluster's registry under
        // engine="mapred", so a single /metrics scrape covers both.
        mr.set_registry(hamr.registry().clone());
        Env {
            params,
            disks,
            dfs,
            hamr,
            mr,
        }
    }

    /// Fresh untimed test environment.
    pub fn test(nodes: usize, threads: usize) -> Self {
        Env::new(SimParams::test(nodes, threads))
    }

    /// Build an Env whose HAMR runtime config is customized (ablations).
    pub fn with_hamr_runtime(params: SimParams, runtime: hamr_core::RuntimeConfig) -> Self {
        let mut env = Env::new(params.clone());
        let mut config = env.hamr.config().clone();
        config.runtime = runtime;
        env.hamr = Cluster::with_substrates(config, env.disks.clone(), env.dfs.clone());
        // The replacement cluster brings a fresh registry; re-point the
        // baseline at it so both engines stay on one plane.
        env.mr.set_registry(env.hamr.registry().clone());
        env
    }

    /// Build an Env whose HAMR cluster runs under a specific scheduler
    /// (overrides the `HAMR_SCHED` environment default).
    pub fn with_hamr_sched(params: SimParams, sched: hamr_core::SchedMode) -> Self {
        let runtime = hamr_core::RuntimeConfig {
            sched,
            ..Default::default()
        };
        Env::with_hamr_runtime(params, runtime)
    }
}

impl Env {
    /// Session over the HAMR cluster: job chains, residency, and
    /// namespaced resets. Workloads should run through this rather
    /// than `hamr.run` directly so chained jobs share the KV store
    /// and the partition-resident frame cache.
    pub fn session(&self) -> hamr_core::Session<'_> {
        self.hamr.session()
    }

    /// Reset one workload's rerun state: every KV key and every
    /// resident cache tag prefixed `ns` (convention: `"<wl>/"`, e.g.
    /// `"pr/"`). Centralizes the cleanup each iterative workload used
    /// to hand-roll with `kv().clear()` — which nuked *every* tenant's
    /// state, not just its own. Returns the number of KV entries
    /// dropped.
    pub fn reset_namespace(&self, ns: &str) -> usize {
        self.hamr.session().reset_namespace(ns)
    }

    /// Idempotently write a text file into the DFS.
    pub fn seed_text(&self, path: &str, lines: &[String]) -> Result<(), String> {
        if self.dfs.exists(path) {
            return Ok(());
        }
        let mut w = self.dfs.create(path).map_err(|e| e.to_string())?;
        for line in lines {
            w.write_line(line);
        }
        w.seal().map_err(|e| e.to_string())
    }
}

/// Apply the environment's input scale factor to a base size.
pub fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// A process-unique DFS path (MapReduce jobs refuse to overwrite
/// outputs, like Hadoop).
pub fn unique_path(prefix: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}-{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Per-iteration shuffle and cache telemetry for iterative
/// workloads. Entry `i` covers iteration `i` (iteration 0 is the
/// setup/build iteration).
#[derive(Debug, Clone, Default)]
pub struct IterStats {
    /// Wall-clock time of this iteration's job(s).
    pub elapsed: Duration,
    /// Bytes that crossed node boundaries during this iteration.
    pub shuffled_bytes: u64,
    /// Records emitted into this iteration's shuffles (pre-combiner;
    /// 0 on a resident-cache serve, because the loader never runs).
    pub shuffle_records: u64,
    /// Resident-cache serves during this iteration.
    pub cache_hits: u64,
    /// Shuffle bytes the resident cache absorbed this iteration.
    pub cache_bytes_saved: u64,
}

/// One engine's result on one benchmark.
#[derive(Debug, Clone, Default)]
pub struct BenchOutput {
    /// Wall-clock execution time (the paper's Table 2 metric).
    pub elapsed: Duration,
    /// Order-independent checksum of the semantic output, for
    /// cross-engine equivalence checks. 0 when not applicable.
    pub checksum: u64,
    /// Number of semantic output records.
    pub records: u64,
    /// Records emitted map-side into the shuffle (pre-combiner), so the
    /// two engines are comparable. 0 when the workload does not report
    /// it — only the perf-harness benchmarks plumb this through.
    pub shuffle_records: u64,
    /// Bytes that crossed node boundaries during the run. 0 when not
    /// reported.
    pub shuffled_bytes: u64,
    /// Successful work-steal operations across all nodes. 0 for the
    /// MapReduce engine and for HAMR under the centralized or
    /// deterministic schedulers.
    pub steals: u64,
    /// Total tasks relocated by steals.
    pub stolen_tasks: u64,
    /// Total worker time spent parked waiting for work, in seconds.
    pub park_seconds: f64,
    /// Mean per-node occupancy imbalance (CV of tasks-per-worker;
    /// 0 = every worker ran the same number of tasks).
    pub occupancy_imbalance: f64,
    /// Records folded away by HAMR's in-node combiners. 0 for mapred.
    pub combined_records: u64,
    /// Always 0: hot-key splitting was removed and the combiner is the
    /// one skew mechanism. Kept so existing readers of the field
    /// compile; goes with the benchmark's `core.skew.splits` metric.
    pub splits_triggered: u64,
    /// Per-iteration telemetry (empty for single-job workloads and
    /// for the MapReduce engine).
    pub iters: Vec<IterStats>,
    /// Estimated distinct shuffle keys from the data-plane sketches
    /// (HAMR: max over hash-exchange edges; mapred: merged reduce-side
    /// HLL). 0 when `HAMR_STATS=off` or not plumbed by the workload.
    pub distinct_keys: u64,
    /// Share of shuffled records carried by the hottest key, from the
    /// SpaceSaving sketch's guaranteed count. 0.0 when stats are off.
    pub hot_key_share: f64,
    /// Exact distinct shuffle keys when the engine can count them
    /// (mapred: reduce-group total — disjoint reducer key ranges make
    /// the sum exact). 0 for HAMR, whose figure is always a sketch;
    /// benchjson's sketch-accuracy gate anchors on this.
    pub exact_distinct_keys: u64,
}

impl BenchOutput {
    /// Fold a HAMR run's scheduler counters into this output. For
    /// multi-job benchmarks (PageRank, K-Means) call once per job:
    /// steal and park totals accumulate, imbalance keeps a running
    /// mean.
    pub fn fold_sched_metrics(&mut self, m: &hamr_core::JobMetrics, jobs_so_far: u64) {
        self.steals += m.total_steals();
        self.stolen_tasks += m.total_stolen_tasks();
        self.park_seconds += m.total_park_time().as_secs_f64();
        self.combined_records += m.total_combined();
        let n = jobs_so_far as f64;
        self.occupancy_imbalance =
            (self.occupancy_imbalance * n + m.mean_occupancy_imbalance()) / (n + 1.0);
        if let Some(snap) = &m.stats {
            // Multi-job benchmarks keep the widest shuffle: key spaces
            // repeat across iterations, so max beats sum.
            self.distinct_keys = self.distinct_keys.max(snap.shuffle_distinct());
            self.hot_key_share = self.hot_key_share.max(snap.shuffle_hot_share());
        }
    }

    /// Fold a MapReduce run's sketch results into this output (the
    /// baseline counterpart of [`fold_sched_metrics`]'s stats fold).
    pub fn fold_mr_stats(&mut self, s: &hamr_mapred::JobStats) {
        self.distinct_keys = self.distinct_keys.max(s.distinct_keys);
        self.hot_key_share = self.hot_key_share.max(s.hot_key_share);
        self.exact_distinct_keys = self.exact_distinct_keys.max(s.groups);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_shares_dfs_between_engines() {
        let env = Env::test(2, 2);
        let mut w = env.dfs.create("shared.txt").unwrap();
        w.write_line("hello");
        w.seal().unwrap();
        // Visible through both engines' handles.
        assert!(env.hamr.dfs().exists("shared.txt"));
        assert!(env.mr.dfs().exists("shared.txt"));
    }

    #[test]
    fn paper_scaled_params_are_timed() {
        let p = SimParams::paper_scaled();
        assert!(!p.net.is_instant());
        assert!(!p.disk.is_instant());
        assert!(p.startup.job > Duration::ZERO);
    }
}

//! The benchmark's workloads: one paper benchmark each, at a fixed
//! shape, on a fixed substrate. Why each one is here is in README.md.

use hamr_core::RuntimeConfig;
use hamr_workloads::histogram_ratings::HistogramRatings;
use hamr_workloads::pagerank::PageRank;
use hamr_workloads::wordcount::WordCount;
use hamr_workloads::{Benchmark, Env, SimParams};

/// The baseline shape: 4 nodes of 2 worker threads.
pub const NODES: usize = 4;
pub const THREADS_PER_NODE: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many-key shuffle on the instant substrate: per-record data-plane
    /// work is nearly all of the wall.
    WordCount,
    /// Five hot keys on the instant substrate: the paper's §5.2
    /// inversion case.
    HistRatings,
    /// The iterative session chain on the modeled network and disk.
    PageRankNet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WordCount,
        Workload::HistRatings,
        Workload::PageRankNet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WordCount => "wordcount",
            Workload::HistRatings => "histratings",
            Workload::PageRankNet => "pagerank-net",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Single-job workloads never touch the session chain, the
    /// resident cache or the KV store.
    pub fn iterative(self) -> bool {
        self == Workload::PageRankNet
    }

    /// Substrate and shape for input `seed` at generator scale `scale`
    /// (1.0 = the harness defaults).
    pub fn params(self, seed: u64, scale: f64) -> SimParams {
        let base = match self {
            Workload::WordCount | Workload::HistRatings => SimParams::test(NODES, THREADS_PER_NODE),
            Workload::PageRankNet => SimParams {
                nodes: NODES,
                threads_per_node: THREADS_PER_NODE,
                ..SimParams::paper_scaled()
            },
        };
        SimParams {
            seed,
            scale,
            ..base
        }
    }

    /// The benchmark itself. `resident` is PageRank's cross-iteration
    /// cache switch; the single-job workloads ignore it.
    pub fn bench(self, resident: bool) -> Box<dyn Benchmark> {
        match self {
            Workload::WordCount => Box::new(WordCount::default()),
            Workload::HistRatings => Box::new(HistogramRatings::default()),
            Workload::PageRankNet => Box::new(PageRank {
                iterations: 5,
                resident,
                ..Default::default()
            }),
        }
    }

    /// A fresh environment with this workload's input seeded into its
    /// DFS; HAMR runs `runtime`, or the engine's defaults when `None`.
    pub fn seeded_env(
        self,
        params: &SimParams,
        runtime: Option<RuntimeConfig>,
    ) -> Result<Env, String> {
        let env = match runtime {
            Some(runtime) => Env::with_hamr_runtime(params.clone(), runtime),
            None => Env::new(params.clone()),
        };
        self.bench(true).seed(&env)?;
        Ok(env)
    }
}

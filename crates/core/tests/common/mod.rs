//! Helpers shared by the supervision and journal integration tests:
//! the WordCount graph both fault scenarios shuffle, the fast
//! abort-mode watchdog, the backpressure-deadlock configuration, and
//! per-test temp directories.

use hamr_core::{
    typed, ClusterConfig, Emitter, Exchange, FaultInjection, JobBuilder, JobGraph, WatchdogAction,
    WatchdogConfig,
};
use std::path::PathBuf;
use std::time::Duration;

/// WordCount over `lines` copies of a fixed corpus: loader -> map
/// (split words) -> partial reduce (sum), hash-shuffled across nodes.
pub fn wordcount(name: &str, lines: usize) -> JobGraph {
    let corpus: Vec<String> = (0..lines)
        .map(|i| format!("alpha beta gamma delta key{} alpha", i % 7))
        .collect();
    let mut job = JobBuilder::new(name);
    let loader = job.add_loader("lines", typed::vec_loader(corpus));
    let words = job.add_map(
        "split",
        typed::map_fn(|_line: u64, text: String, out: &mut Emitter| {
            for w in text.split_whitespace() {
                out.emit_t(0, &w.to_string(), &1u64);
            }
        }),
    );
    let counts = job.add_partial_reduce("sum", typed::sum_reducer::<String>());
    job.connect(loader, words, Exchange::Local);
    job.connect(words, counts, Exchange::Hash);
    job.capture_output(counts);
    job.build().expect("wordcount graph")
}

/// A fast abort-mode watchdog for fault tests: 20ms epochs, patience 5
/// — trips within ~120ms of the wedge instead of the 1s default.
pub fn fast_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        epoch: Duration::from_millis(20),
        patience: 5,
        action: WatchdogAction::Abort,
        ..Default::default()
    }
}

/// Three nodes with one record per bin and a one-bin window, and node 1
/// dropping every flow-control ack: the shuffle wedges the moment node
/// 1 stops acking — every producer's window to node 1 stays full and
/// deferred bins pile up behind it.
pub fn deadlock_config() -> ClusterConfig {
    let mut config = ClusterConfig::local(3, 2);
    config.runtime.bin_capacity = 1;
    config.runtime.out_window_bins = 1;
    config.runtime.fault = FaultInjection::DropAcks { node: 1 };
    config
}

/// A fresh (absent) per-test directory under the system temp dir.
pub fn temp_dir(prefix: &str, test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

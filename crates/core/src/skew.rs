//! Skew mitigation by in-node combining (paper §5.2).
//!
//! The paper's one inversion — mapred beating HAMR 4x on skewed
//! HistogramRatings — is a hot reduce partition: every record of the
//! two hot movie keys funnels through one node's shuffle edge while
//! mapred's map-side combiner collapses them before they ship. HAMR
//! closes it the same way: a per-edge associative [`Combiner`]
//! (registered with `JobBuilder::connect_combined`) pre-aggregates
//! duplicate keys inside `TaskOutput` before bins ship, so the hot edge
//! carries one partial per key per task instead of raw records (after
//! "Hadoop MapReduce Performance Enhancement Using In-node Combiners").
//!
//! The combiner is the only skew mechanism. Routing never changes: a
//! combined partial hashes to the same home node as the records it
//! folds, so reduce placement, the resident cache's partition-stable
//! replay and the causal critical path are exactly those of an
//! uncombined run. [`SkewConfig::combine`] / `HAMR_SKEW=off|combine`
//! toggle it so benchmarks can ablate it.
//!
//! Combining applies to edges with a registered combiner, a `Hash`
//! exchange, and a `Reduce`/`PartialReduce` consumer — batch and
//! streaming jobs alike.

use crate::config::SkewConfig;
use crate::graph::{Exchange, FlowletKind, JobGraph};
use std::fmt;
use std::sync::Arc;

/// An associative, commutative merge of two encoded values for one
/// key. The combiner contract mirrors Hadoop's: its output must be a
/// valid input for the downstream reducer, so applying it zero or more
/// times at any grouping must not change the final result.
pub trait Combiner: Send + Sync {
    /// Merge encoded values `a` and `b` for `key` into `out`
    /// (`out` arrives empty).
    fn combine(&self, key: &[u8], a: &[u8], b: &[u8], out: &mut Vec<u8>);
}

impl fmt::Debug for dyn Combiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Combiner")
    }
}

/// Shared per-job skew state: the combiner of every edge where in-node
/// combining is on.
#[derive(Debug, Default)]
pub struct SkewRuntime {
    /// Per-edge combiner, for eligible edges only (Hash exchange into a
    /// Reduce/PartialReduce) and only when `cfg.combine` is on.
    combiners: Vec<Option<Arc<dyn Combiner>>>,
}

impl SkewRuntime {
    /// Derive the per-edge combiner map from the graph and config.
    pub fn new(graph: &JobGraph, cfg: &SkewConfig) -> Self {
        if !cfg.combine {
            return SkewRuntime::default();
        }
        let combiners = graph
            .edges
            .iter()
            .enumerate()
            .map(|(e, def)| {
                let aggregating = matches!(
                    graph.flowlets[def.dst].kind,
                    FlowletKind::Reduce(_) | FlowletKind::PartialReduce(_)
                );
                if def.exchange != Exchange::Hash || !aggregating {
                    return None;
                }
                graph.edge_combiners.get(e).and_then(|c| c.clone())
            })
            .collect();
        SkewRuntime { combiners }
    }

    /// The combiner folding `edge`, if combining is on there.
    pub fn combiner(&self, edge: usize) -> Option<&Arc<dyn Combiner>> {
        self.combiners.get(edge).and_then(|c| c.as_ref())
    }

    /// Does any of `edges` combine? Lets `TaskOutput` skip all combine
    /// bookkeeping for unaffected flowlets.
    pub fn active_for(&self, mut edges: impl Iterator<Item = usize>) -> bool {
        edges.any(|e| self.combiner(e).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed::{pairs_loader, reduce_fn, sum_combiner};
    use crate::JobBuilder;

    fn combined_graph() -> JobGraph {
        let mut b = JobBuilder::new("skewtest");
        let l = b.add_loader("L", pairs_loader(Vec::<(u64, u64)>::new()));
        let m = b.add_map(
            "M",
            crate::typed::map_fn(|k: u64, v: u64, out: &mut crate::Emitter| out.emit_t(0, &k, &v)),
        );
        let r = b.add_reduce(
            "R",
            reduce_fn(|k: u64, vs: Vec<u64>, out: &mut crate::Emitter| {
                out.output_t(&k, &vs.iter().sum::<u64>());
            }),
        );
        b.connect(l, m, Exchange::Local);
        b.connect_combined(m, r, Exchange::Hash, sum_combiner());
        b.build().unwrap()
    }

    #[test]
    fn eligibility_requires_hash_into_reduce() {
        let g = combined_graph();
        let rt = SkewRuntime::new(&g, &SkewConfig::default());
        // Edge 0 is Local (no combiner), edge 1 is Hash into Reduce.
        assert!(rt.combiner(0).is_none());
        assert!(rt.combiner(1).is_some());
        assert!(rt.active_for([0usize, 1].into_iter()));
        assert!(!rt.active_for([0usize].into_iter()));
    }

    #[test]
    fn off_config_is_inert() {
        let g = combined_graph();
        let rt = SkewRuntime::new(&g, &SkewConfig::off());
        assert!(rt.combiner(1).is_none());
        assert!(!rt.active_for([0usize, 1].into_iter()));
    }
}

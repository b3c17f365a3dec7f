//! Per-node input state for reduce and partial-reduce flowlets.
//!
//! * [`ReduceState`] collects every `(key, value)` a node receives for
//!   a reduce flowlet, grouped by key, under a memory budget; overflow
//!   spills to the local disk as sorted runs (see [`crate::spill`]).
//!   At fire time the state splits into independent per-shard group
//!   iterators so reduce work parallelizes across the thread pool.
//!
//! * [`PartialState`] holds the per-key accumulators of a partial
//!   reduce. Its [`ContentionMode`] decides whether workers share one
//!   lock-striped map (paper-faithful; §5.2 blames exactly this for the
//!   HistogramRatings slowdown) or keep per-worker maps merged at
//!   flush time (the paper's proposed fix).
//!
//! Both consume [`FrameBin`]s and reuse the 64-bit hash that rides in
//! front of every frame entry — the key was hashed once at emission and
//! is never hashed again here. Reduce ingestion slices keys and values
//! zero-copy out of the frame ([`hamr_codec::Frame::iter_shared`]),
//! since the grouped state retains most of the frame's bytes anyway.
//! Partial-reduce folding borrows entries and copies only the key, only
//! on first sight: accumulators outlive the frame, and pinning a whole
//! frame allocation per retained key would hoard memory.

use crate::config::ContentionMode;
use crate::flowlet::{AccBox, PartialReduceFn};
use crate::record::FrameBin;
use crate::spill::{write_run, GroupedMerge, RunReader, SortedStream};
use bytes::Bytes;
use hamr_simdisk::{Disk, DiskError};
use hamr_trace::{EventKind, Gauge, Tracer};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Rough allocator overhead charged per group / per value when
/// accounting memory, so budgets reflect real footprint, not just
/// payload bytes.
const GROUP_OVERHEAD: usize = 48;
const VALUE_OVERHEAD: usize = 8;

/// Sub-shard index for a key, from its emission-time hash. Uses the
/// *upper* hash bits: the lower bits already picked the node
/// (`hash % nodes`), so using them again would collapse every key on a
/// node into one shard.
#[inline]
fn sub_shard(hash: u64, shards: usize) -> usize {
    ((hash >> 32) % shards as u64) as usize
}

struct ReduceShard {
    groups: HashMap<Bytes, Vec<Bytes>>,
    bytes: usize,
    runs: Vec<String>,
}

/// Grouped key-value state for one reduce flowlet instance.
pub(crate) struct ReduceState {
    shards: Vec<Mutex<ReduceShard>>,
    disk: Disk,
    /// Memory budget across all shards of this instance.
    budget: usize,
    spill_prefix: String,
    spilled_bytes: std::sync::atomic::AtomicU64,
    tracer: Tracer,
    node: u32,
    flowlet: u32,
    /// Registry gauge mirroring bytes resident across all in-memory
    /// shards (spilled bytes leave the gauge when the shard drains).
    resident_gauge: Gauge,
}

impl ReduceState {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shards: usize,
        budget: usize,
        disk: Disk,
        spill_prefix: String,
        tracer: Tracer,
        node: u32,
        flowlet: u32,
        resident_gauge: Gauge,
    ) -> Self {
        assert!(shards > 0);
        ReduceState {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ReduceShard {
                        groups: HashMap::new(),
                        bytes: 0,
                        runs: Vec::new(),
                    })
                })
                .collect(),
            disk,
            budget,
            spill_prefix,
            spilled_bytes: std::sync::atomic::AtomicU64::new(0),
            tracer,
            node,
            flowlet,
            resident_gauge,
        }
    }

    /// Fold one bin into the grouped state, spilling the touched shard
    /// if it crosses its budget slice. Keys and values are zero-copy
    /// sub-views of the bin's frame; sub-shard selection reuses the
    /// in-frame hash. `worker` labels any spill this triggers in the
    /// trace. The node's workers share the resident-bytes gauge, so
    /// the bin's net change lands in one update.
    pub(crate) fn ingest(&self, worker: usize, bin: &FrameBin) -> Result<(), DiskError> {
        let mut delta = 0i64;
        let result = self.fold_bin(worker, bin, &mut delta);
        self.resident_gauge.add(delta);
        result
    }

    fn fold_bin(&self, worker: usize, bin: &FrameBin, delta: &mut i64) -> Result<(), DiskError> {
        let per_shard_budget = (self.budget / self.shards.len()).max(1);
        for (hash, key, value) in bin.frame.iter_shared() {
            let s = sub_shard(hash, self.shards.len());
            let mut shard = self.shards[s].lock();
            let added = match shard.groups.get_mut(&key) {
                Some(values) => {
                    let add = value.len() + VALUE_OVERHEAD;
                    values.push(value);
                    add
                }
                None => {
                    let add = key.len() + value.len() + GROUP_OVERHEAD + VALUE_OVERHEAD;
                    shard.groups.insert(key, vec![value]);
                    add
                }
            };
            shard.bytes += added;
            *delta += added as i64;
            if shard.bytes > per_shard_budget {
                *delta -= shard.bytes as i64;
                self.spill_locked(worker, &mut shard)?;
            }
        }
        Ok(())
    }

    /// Spill the shard's groups to disk; its resident bytes drop to
    /// zero.
    fn spill_locked(&self, worker: usize, shard: &mut ReduceShard) -> Result<(), DiskError> {
        let mut entries = Vec::new();
        for (key, values) in shard.groups.drain() {
            for v in values {
                entries.push((key.clone(), v));
            }
        }
        shard.bytes = 0;
        if entries.is_empty() {
            return Ok(());
        }
        self.tracer.emit(
            self.node,
            worker as u32,
            EventKind::SpillStart {
                flowlet: self.flowlet,
            },
        );
        let name = self.disk.temp_name(&self.spill_prefix);
        let written = write_run(&self.disk, &name, entries)?;
        self.spilled_bytes
            .fetch_add(written as u64, std::sync::atomic::Ordering::Relaxed);
        self.tracer.emit(
            self.node,
            worker as u32,
            EventKind::SpillEnd {
                flowlet: self.flowlet,
                bytes: written as u64,
            },
        );
        shard.runs.push(name);
        Ok(())
    }

    /// Total bytes this instance has spilled so far.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Split into independent per-shard group iterators for firing.
    pub(crate) fn into_fire_shards(self) -> Result<Vec<FireShard>, DiskError> {
        let disk = self.disk;
        // The grouped state hands its bytes to the fire iterators;
        // from the gauge's perspective it no longer holds them.
        self.resident_gauge.set(0);
        self.shards
            .into_iter()
            .map(|m| {
                let shard = m.into_inner();
                FireShard::build(shard, &disk)
            })
            .collect()
    }
}

/// Iterates one shard's `(key, values)` groups.
pub(crate) enum FireShard {
    /// Nothing spilled: iterate the hashmap directly (no sort needed).
    Memory(std::collections::hash_map::IntoIter<Bytes, Vec<Bytes>>),
    /// Merge in-memory remainder with spilled runs, key order.
    Merge(GroupedMerge),
}

impl FireShard {
    fn build(shard: ReduceShard, disk: &Disk) -> Result<Self, DiskError> {
        if shard.runs.is_empty() {
            return Ok(FireShard::Memory(shard.groups.into_iter()));
        }
        let mut streams = Vec::with_capacity(shard.runs.len() + 1);
        let mut mem_entries = Vec::new();
        for (key, values) in shard.groups {
            for v in values {
                mem_entries.push((key.clone(), v));
            }
        }
        streams.push(SortedStream::from_entries(mem_entries));
        for run in &shard.runs {
            streams.push(SortedStream::Run(RunReader::open(disk, run)?));
        }
        Ok(FireShard::Merge(GroupedMerge::new(streams)))
    }

    /// Next group, or `None` when the shard is drained.
    pub(crate) fn next_group(&mut self) -> Option<(Bytes, Vec<Bytes>)> {
        match self {
            FireShard::Memory(it) => it.next(),
            FireShard::Merge(m) => m.next_group(),
        }
    }

    /// True when the shard holds no groups. Fire shards are scheduled
    /// as independent (stealable) tasks; empty shards are filtered out
    /// before dispatch so they don't inflate task and steal counts.
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            FireShard::Memory(it) => it.len() == 0,
            // A merge shard only exists because runs were spilled, so
            // it always yields at least one group.
            FireShard::Merge(_) => false,
        }
    }
}

/// Accumulator state for one partial-reduce flowlet instance.
/// Accumulators are native Rust values (see [`AccBox`]); no
/// serialization happens on the fold path.
pub(crate) enum PartialState {
    /// Lock-striped shared map. With a skewed key space most updates
    /// hit one stripe and serialize — deliberately reproducing the
    /// paper's contention pathology.
    Shared {
        stripes: Vec<Mutex<HashMap<Bytes, AccBox>>>,
    },
    /// One map per worker; merged when flushed.
    PerWorker {
        maps: Vec<Mutex<HashMap<Bytes, AccBox>>>,
    },
}

const SHARED_STRIPES: usize = 16;

impl PartialState {
    pub(crate) fn new(mode: ContentionMode, workers: usize) -> Self {
        match mode {
            ContentionMode::SharedLocked => PartialState::Shared {
                stripes: (0..SHARED_STRIPES)
                    .map(|_| Mutex::new(HashMap::new()))
                    .collect(),
            },
            ContentionMode::Sharded => PartialState::PerWorker {
                maps: (0..workers.max(1))
                    .map(|_| Mutex::new(HashMap::new()))
                    .collect(),
            },
        }
    }

    /// Fold a bin into the accumulators. Entries are borrowed from the
    /// frame; stripe selection reuses the in-frame hash. `worker`
    /// selects the private map in `PerWorker` mode.
    pub(crate) fn fold_bin(&self, worker: usize, reducer: &dyn PartialReduceFn, bin: &FrameBin) {
        match self {
            PartialState::Shared { stripes } => {
                for (hash, key, value) in bin.frame.iter() {
                    // Per-record lock acquisition is the point: this is
                    // the shared-variable update the paper describes.
                    let stripe = sub_shard(hash, stripes.len());
                    let mut map = stripes[stripe].lock();
                    Self::fold_into(&mut map, reducer, key, value);
                }
            }
            PartialState::PerWorker { maps } => {
                let mut map = maps[worker % maps.len()].lock();
                for (_, key, value) in bin.frame.iter() {
                    Self::fold_into(&mut map, reducer, key, value);
                }
            }
        }
    }

    fn fold_into(
        map: &mut HashMap<Bytes, AccBox>,
        reducer: &dyn PartialReduceFn,
        key: &[u8],
        value: &[u8],
    ) {
        match map.get_mut(key) {
            Some(acc) => reducer.fold(key, acc, value),
            None => {
                let acc = reducer.init(key, value);
                // First sight of the key: copy it out of the frame so
                // the accumulator map doesn't pin frame allocations.
                map.insert(Bytes::copy_from_slice(key), acc);
            }
        }
    }

    /// Drain all accumulators (merging per-worker maps), leaving the
    /// state empty for the next streaming epoch.
    pub(crate) fn drain(&self, reducer: &dyn PartialReduceFn) -> Vec<(Bytes, AccBox)> {
        match self {
            PartialState::Shared { stripes } => {
                let mut out = Vec::new();
                for stripe in stripes {
                    out.extend(stripe.lock().drain());
                }
                out
            }
            PartialState::PerWorker { maps } => {
                let mut merged: HashMap<Bytes, AccBox> = HashMap::new();
                for m in maps {
                    for (k, v) in m.lock().drain() {
                        match merged.get_mut(&k) {
                            Some(prev) => reducer.merge(&k, prev, v),
                            None => {
                                merged.insert(k, v);
                            }
                        }
                    }
                }
                merged.into_iter().collect()
            }
        }
    }

    /// Number of distinct keys currently held (diagnostic).
    #[allow(dead_code)]
    pub(crate) fn key_count(&self) -> usize {
        match self {
            PartialState::Shared { stripes } => stripes.iter().map(|s| s.lock().len()).sum(),
            PartialState::PerWorker { maps } => {
                // Distinct keys across workers require a merge; this is
                // a diagnostic, so count unique keys properly.
                let mut keys = std::collections::HashSet::new();
                for m in maps {
                    for k in m.lock().keys() {
                        keys.insert(k.clone());
                    }
                }
                keys.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flowlet::{Emitter, TaskContext};
    use hamr_codec::stable_hash;
    use hamr_simdisk::DiskConfig;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn bin(pairs: &[(&[u8], &[u8])]) -> FrameBin {
        FrameBin::from_pairs(0, pairs)
    }

    fn test_state(shards: usize, budget: usize, disk: Disk) -> ReduceState {
        ReduceState::new(
            shards,
            budget,
            disk,
            "t".into(),
            Tracer::disabled(),
            0,
            0,
            Gauge::disabled(),
        )
    }

    fn drain_all(mut shards: Vec<FireShard>) -> Vec<(Bytes, Vec<Bytes>)> {
        let mut out = Vec::new();
        for shard in &mut shards {
            while let Some(g) = shard.next_group() {
                out.push(g);
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn reduce_state_groups_by_key() {
        let disk = Disk::new(DiskConfig::instant());
        let st = test_state(4, 1 << 20, disk);
        st.ingest(0, &bin(&[(b"a", b"1"), (b"b", b"2"), (b"a", b"3")]))
            .unwrap();
        let groups = drain_all(st.into_fire_shards().unwrap());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, b("a"));
        let mut vs = groups[0].1.clone();
        vs.sort();
        assert_eq!(vs, vec![b("1"), b("3")]);
        assert_eq!(groups[1].0, b("b"));
    }

    #[test]
    fn ingested_values_are_frame_views() {
        let disk = Disk::new(DiskConfig::instant());
        let st = test_state(1, 1 << 20, disk);
        let bin = bin(&[(b"key", b"value-stays-in-frame")]);
        let base = bin.frame.data().as_ptr() as usize;
        let end = base + bin.frame.payload_bytes();
        st.ingest(0, &bin).unwrap();
        let groups = drain_all(st.into_fire_shards().unwrap());
        let p = groups[0].1[0].as_ptr() as usize;
        assert!(
            p >= base && p < end,
            "stored value should alias the frame buffer"
        );
    }

    #[test]
    fn tiny_budget_forces_spill_and_merge_preserves_groups() {
        let disk = Disk::new(DiskConfig::instant());
        // Budget so small every ingest spills.
        let st = test_state(2, 64, disk.clone());
        for i in 0..50u64 {
            let key = format!("key{}", i % 10);
            let value = format!("v{i}");
            st.ingest(0, &bin(&[(key.as_bytes(), value.as_bytes())]))
                .unwrap();
        }
        assert!(st.spilled_bytes() > 0, "expected spills");
        assert!(!disk.is_empty(), "spill files on disk");
        let groups = drain_all(st.into_fire_shards().unwrap());
        assert_eq!(groups.len(), 10);
        let total: usize = groups.iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn resident_gauge_tracks_shard_bytes_per_bin() {
        // Budget 128 over 2 shards: some multi-record bins spill
        // mid-frame, others do not; the gauge must match either way.
        let gauge = hamr_trace::MetricsRegistry::new()
            .gauge("reduce_resident_bytes", hamr_trace::Labels::new());
        let st = ReduceState::new(
            2,
            128,
            Disk::new(DiskConfig::instant()),
            "t".into(),
            Tracer::disabled(),
            0,
            0,
            gauge.clone(),
        );
        for i in 0..20u64 {
            let pairs: Vec<(String, String)> = (0..4)
                .map(|j| (format!("key{}", (i + j) % 6), format!("v{i}.{j}")))
                .collect();
            let refs: Vec<(&[u8], &[u8])> = pairs
                .iter()
                .map(|(k, v)| (k.as_bytes(), v.as_bytes()))
                .collect();
            st.ingest(0, &bin(&refs)).unwrap();
            let resident: usize = st.shards.iter().map(|m| m.lock().bytes).sum();
            assert_eq!(gauge.get(), resident as i64, "after bin {i}");
        }
        assert!(st.spilled_bytes() > 0, "expected spills");
        st.into_fire_shards().unwrap();
        assert_eq!(gauge.get(), 0);
    }

    #[test]
    fn no_spill_under_budget() {
        let disk = Disk::new(DiskConfig::instant());
        let st = test_state(4, 1 << 20, disk.clone());
        st.ingest(0, &bin(&[(b"a", b"1")])).unwrap();
        assert_eq!(st.spilled_bytes(), 0);
        assert!(disk.is_empty());
    }

    struct SumReducer;
    impl PartialReduceFn for SumReducer {
        fn init(&self, _key: &[u8], value: &[u8]) -> AccBox {
            let v: u64 = hamr_codec::Codec::from_bytes(value).unwrap();
            Box::new(v)
        }
        fn fold(&self, _key: &[u8], acc: &mut AccBox, value: &[u8]) {
            let v: u64 = hamr_codec::Codec::from_bytes(value).unwrap();
            *acc.downcast_mut::<u64>().unwrap() += v;
        }
        fn merge(&self, _key: &[u8], acc: &mut AccBox, other: AccBox) {
            *acc.downcast_mut::<u64>().unwrap() += *other.downcast::<u64>().unwrap();
        }
        fn finish(&self, _ctx: &TaskContext, _key: &[u8], _acc: AccBox, _out: &mut Emitter) {}
    }

    fn u64b(v: u64) -> Bytes {
        hamr_codec::Codec::to_bytes(&v)
    }

    fn partial_sums(state: &PartialState) -> Vec<(Bytes, u64)> {
        let mut out: Vec<(Bytes, u64)> = state
            .drain(&SumReducer)
            .into_iter()
            .map(|(k, v)| (k, *v.downcast::<u64>().unwrap()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn shared_partial_state_sums() {
        let st = PartialState::new(ContentionMode::SharedLocked, 4);
        st.fold_bin(
            0,
            &SumReducer,
            &bin(&[(b"x", &u64b(1)), (b"y", &u64b(10)), (b"x", &u64b(2))]),
        );
        st.fold_bin(1, &SumReducer, &bin(&[(b"x", &u64b(4))]));
        assert_eq!(st.key_count(), 2);
        let sums = partial_sums(&st);
        assert_eq!(sums, vec![(b("x"), 7), (b("y"), 10)]);
        // Drained: empty now.
        assert_eq!(st.key_count(), 0);
    }

    #[test]
    fn per_worker_partial_state_merges_on_drain() {
        let st = PartialState::new(ContentionMode::Sharded, 3);
        for worker in 0..3 {
            st.fold_bin(worker, &SumReducer, &bin(&[(b"x", &u64b(5))]));
        }
        assert_eq!(st.key_count(), 1);
        let sums = partial_sums(&st);
        assert_eq!(sums, vec![(b("x"), 15)]);
    }

    #[test]
    fn partial_state_concurrent_folds_are_correct() {
        use std::sync::Arc;
        for mode in [ContentionMode::SharedLocked, ContentionMode::Sharded] {
            let st = Arc::new(PartialState::new(mode, 8));
            let threads: Vec<_> = (0..8)
                .map(|w| {
                    let st = Arc::clone(&st);
                    std::thread::spawn(move || {
                        for _ in 0..200 {
                            st.fold_bin(w, &SumReducer, &bin(&[(b"hot", &u64b(1))]));
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let sums = partial_sums(&st);
            assert_eq!(sums, vec![(b("hot"), 1600)], "mode {mode:?}");
        }
    }

    #[test]
    fn sub_shard_spreads_node_local_keys() {
        // Keys that all hash to the same node (mod 8) must still spread
        // over sub-shards, because sub_shard uses the upper hash bits.
        let nodes = 8;
        let shards = 4;
        let mut used = std::collections::HashSet::new();
        let mut found = 0;
        for i in 0..100_000u64 {
            let key = i.to_le_bytes();
            if hamr_codec::partition(&key, nodes) == 3 {
                used.insert(sub_shard(stable_hash(&key), shards));
                found += 1;
                if found > 200 {
                    break;
                }
            }
        }
        assert_eq!(used.len(), shards, "all sub-shards should be used");
    }
}

//! Data-plane statistics: streaming sketches over the records that
//! actually flow, not just the tasks that move them.
//!
//! Every (edge, destination-partition) pair carries a [`SketchSet`]:
//!
//! * [`Hll`] — a HyperLogLog distinct-key estimator with a fixed
//!   2^12 = 4096 registers (4 KiB, standard error 1.04/√4096 ≈ 1.6%),
//!   fed the 64-bit key hash the frame already carries — zero re-hash;
//! * [`SpaceSaving`] — the Metwally et al. top-K heavy-hitter sketch
//!   with the guaranteed-count invariant `count − err ≤ true ≤ count`,
//!   parameterized by capacity (the stats plane runs K = 32, with
//!   key-byte samples for naming);
//! * [`SizeHist`] — a log2 histogram of record value sizes answering
//!   quantile queries to within a power of two.
//!
//! All three merge associatively across partitions and nodes, so a
//! job-wide per-edge profile is a fold, not a re-scan. The sketches
//! are observers: they never influence routing, so runs with stats on
//! and off are byte-identical.
//!
//! [`StatsPlane`] is the per-job runtime container the engine updates
//! at `TaskOutput::close_bin` time (once per finished bin, one mutex
//! acquisition amortized over the whole bin). Under
//! `HAMR_STATS=full[:N]` it also keeps a deterministic 1-in-N
//! hash-gated record lineage sample: every hop a sampled key's bins
//! take (emit, reduce ingest) appends a
//! [`LineageHop`], and the resulting [`LineageSample`]s travel with the
//! [`StatsSnapshot`] into the journal where `hamr explain` can replay
//! the path offline.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// `HAMR_STATS` gate: how much of the data plane to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// No sketches, no lineage — the plane is never allocated.
    Off,
    /// Per-(edge, dst) sketches only (the default).
    #[default]
    Edges,
    /// Sketches plus 1-in-`sample_one_in` hash-gated record lineage.
    Full {
        /// Sample a key iff `hash % sample_one_in == 0` (1 = every key).
        sample_one_in: u64,
    },
}

impl StatsMode {
    /// Parse `HAMR_STATS=off|edges|full|full:<N>`. Unset or
    /// unrecognized values fall back to the default (`edges`).
    pub fn from_env_str(s: Option<&str>) -> Self {
        match s {
            Some("off") | Some("0") | Some("none") => StatsMode::Off,
            Some("full") => StatsMode::Full {
                sample_one_in: DEFAULT_SAMPLE_ONE_IN,
            },
            Some(v) if v.starts_with("full:") => {
                let n = v["full:".len()..]
                    .parse::<u64>()
                    .unwrap_or(DEFAULT_SAMPLE_ONE_IN);
                StatsMode::Full {
                    sample_one_in: n.max(1),
                }
            }
            _ => StatsMode::Edges,
        }
    }

    pub fn enabled(self) -> bool {
        self != StatsMode::Off
    }

    /// `Some(N)` when lineage sampling is on.
    pub fn lineage_one_in(self) -> Option<u64> {
        match self {
            StatsMode::Full { sample_one_in } => Some(sample_one_in),
            _ => None,
        }
    }
}

/// Default lineage sampling rate under plain `HAMR_STATS=full`.
pub const DEFAULT_SAMPLE_ONE_IN: u64 = 64;

/// The deterministic lineage gate: the same key hash answers the same
/// way at every hop on every node, so a sampled record is recognized
/// everywhere it goes without carrying a wire tag.
#[inline]
pub fn sample_hit(hash: u64, one_in: u64) -> bool {
    one_in <= 1 || hash.is_multiple_of(one_in)
}

// --------------------------------------------------------------------------
// HyperLogLog
// --------------------------------------------------------------------------

/// Register-count exponent: 2^12 registers.
const HLL_P: u32 = 12;
const HLL_M: usize = 1 << HLL_P;

/// HyperLogLog distinct estimator over pre-hashed 64-bit keys.
#[derive(Clone)]
pub struct Hll {
    regs: Box<[u8; HLL_M]>,
}

impl Default for Hll {
    fn default() -> Self {
        Hll::new()
    }
}

impl Hll {
    pub fn new() -> Self {
        Hll {
            regs: Box::new([0u8; HLL_M]),
        }
    }

    /// Observe one (already well-mixed) 64-bit hash.
    #[inline]
    pub fn insert(&mut self, hash: u64) {
        let idx = (hash >> (64 - HLL_P)) as usize;
        // Rank of the first set bit in the remaining 52 bits, 1-based;
        // an all-zero suffix saturates at 53.
        let w = hash << HLL_P;
        let rank = if w == 0 {
            (64 - HLL_P + 1) as u8
        } else {
            w.leading_zeros() as u8 + 1
        };
        if rank > self.regs[idx] {
            self.regs[idx] = rank;
        }
    }

    /// The standard-error of the estimate: 1.04/√m ≈ 1.63%.
    pub fn standard_error() -> f64 {
        1.04 / (HLL_M as f64).sqrt()
    }

    /// Cardinality estimate with the linear-counting small-range
    /// correction (which makes small cardinalities essentially exact).
    pub fn estimate(&self) -> f64 {
        let m = HLL_M as f64;
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let mut sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in self.regs.iter() {
            sum += 1.0 / ((1u64 << r.min(63)) as f64);
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    pub fn distinct(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// Register-wise max: exact, associative, commutative, idempotent.
    pub fn merge(&mut self, other: &Hll) {
        for (a, b) in self.regs.iter_mut().zip(other.regs.iter()) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        self.regs.iter().all(|&r| r == 0)
    }

    #[cfg(test)]
    pub(crate) fn registers(&self) -> &[u8] {
        &self.regs[..]
    }
}

impl std::fmt::Debug for Hll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hll")
            .field("distinct", &self.distinct())
            .finish()
    }
}

// --------------------------------------------------------------------------
// SpaceSaving heavy hitters
// --------------------------------------------------------------------------

/// Longest key-byte prefix a sketch entry or lineage sample retains.
pub const KEY_SAMPLE_BYTES: usize = 48;

/// One tracked heavy-hitter slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsEntry {
    pub hash: u64,
    /// Overestimate of the key's true weight.
    pub count: u64,
    /// Maximum overestimation: `count - err` is a guaranteed floor.
    pub err: u64,
    /// First-seen key bytes (truncated), when the caller supplies them.
    pub key: Option<Box<[u8]>>,
}

/// SpaceSaving top-K sketch over pre-hashed keys, with the classic
/// guarantee `count − err ≤ true-count ≤ count` for every tracked key,
/// and every key of true weight > total/capacity guaranteed present.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    cap: usize,
    entries: Vec<SsEntry>,
    index: BTreeMap<u64, usize>,
    /// Total observed weight (for share-of-traffic queries).
    total: u64,
}

impl SpaceSaving {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        SpaceSaving {
            cap,
            entries: Vec::with_capacity(cap),
            index: BTreeMap::new(),
            total: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Observe `hash` with weight `w`; `key` (if given) is sampled into
    /// the slot the first time the hash claims it.
    pub fn observe(&mut self, hash: u64, key: Option<&[u8]>, w: u64) {
        self.total += w;
        if let Some(&i) = self.index.get(&hash) {
            self.entries[i].count += w;
            if self.entries[i].key.is_none() {
                if let Some(k) = key {
                    self.entries[i].key = Some(truncate_key(k));
                }
            }
            return;
        }
        if self.entries.len() < self.cap {
            self.index.insert(hash, self.entries.len());
            self.entries.push(SsEntry {
                hash,
                count: w,
                err: 0,
                key: key.map(truncate_key),
            });
            return;
        }
        // Evict the minimum-count slot (ties broken by hash for
        // determinism); the newcomer inherits its count as error.
        let mut vi = 0;
        for (i, e) in self.entries.iter().enumerate() {
            let v = &self.entries[vi];
            if (e.count, e.hash) < (v.count, v.hash) {
                vi = i;
            }
        }
        let old = self.entries[vi].clone();
        self.index.remove(&old.hash);
        self.index.insert(hash, vi);
        self.entries[vi] = SsEntry {
            hash,
            count: old.count + w,
            err: old.count,
            key: key.map(truncate_key),
        };
    }

    /// `(count, err)` for a tracked hash.
    pub fn get(&self, hash: u64) -> Option<(u64, u64)> {
        self.index
            .get(&hash)
            .map(|&i| (self.entries[i].count, self.entries[i].err))
    }

    /// Guaranteed lower bound on a tracked hash's true weight (0 when
    /// untracked).
    pub fn guaranteed(&self, hash: u64) -> u64 {
        self.get(hash)
            .map(|(c, e)| c.saturating_sub(e))
            .unwrap_or(0)
    }

    /// Entries sorted by count descending (ties by hash ascending):
    /// the canonical top-K view.
    pub fn top(&self) -> Vec<SsEntry> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        v
    }

    /// Merge another sketch in. For hashes present in both, counts and
    /// errors add exactly. A hash present in only one sketch may have
    /// been evicted by the other — its count there is at most that
    /// sketch's minimum, which is added to both count and error so the
    /// guaranteed-count invariant survives the merge. Commutative
    /// always; associative (and exact) whenever no eviction occurred.
    pub fn merge(&mut self, other: &SpaceSaving) {
        let min_self = if self.entries.len() >= self.cap {
            self.entries.iter().map(|e| e.count).min().unwrap_or(0)
        } else {
            0
        };
        let min_other = if other.entries.len() >= other.cap {
            other.entries.iter().map(|e| e.count).min().unwrap_or(0)
        } else {
            0
        };
        let mut merged: BTreeMap<u64, SsEntry> = BTreeMap::new();
        for e in &self.entries {
            merged.insert(e.hash, e.clone());
        }
        for e in other.entries.iter() {
            match merged.get_mut(&e.hash) {
                Some(m) => {
                    m.count += e.count;
                    m.err += e.err;
                    if m.key.is_none() {
                        m.key = e.key.clone();
                    }
                }
                None => {
                    let mut n = e.clone();
                    n.count += min_self;
                    n.err += min_self;
                    merged.insert(e.hash, n);
                }
            }
        }
        // Keys the other sketch never saw (or evicted) get its minimum
        // as slack.
        for e in &self.entries {
            if !other.index.contains_key(&e.hash) {
                let m = merged.get_mut(&e.hash).expect("seeded above");
                m.count += min_other;
                m.err += min_other;
            }
        }
        let mut all: Vec<SsEntry> = merged.into_values().collect();
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.hash.cmp(&b.hash)));
        all.truncate(self.cap);
        self.entries = all;
        self.index = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.hash, i))
            .collect();
        self.total += other.total;
    }
}

fn truncate_key(k: &[u8]) -> Box<[u8]> {
    k[..k.len().min(KEY_SAMPLE_BYTES)]
        .to_vec()
        .into_boxed_slice()
}

// --------------------------------------------------------------------------
// Log2 value-size histogram
// --------------------------------------------------------------------------

const SIZE_BUCKETS: usize = 64;

/// Log2 histogram over record value sizes: bucket `i` holds sizes in
/// `[2^i, 2^(i+1))` (bucket 0 also takes size 0). Quantiles come back
/// as the inclusive upper bound of the answering bucket, so they are
/// exact to within a factor of two and monotone in `q` by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeHist {
    buckets: [u64; SIZE_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for SizeHist {
    fn default() -> Self {
        SizeHist::new()
    }
}

impl SizeHist {
    pub fn new() -> Self {
        SizeHist {
            buckets: [0u64; SIZE_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, size: u64) {
        let b = 63 - (size | 1).leading_zeros() as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += size;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Inclusive upper bound of the bucket containing the q-quantile
    /// (`0.0 ≤ q ≤ 1.0`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// Bucket-wise sum: exact, associative, commutative.
    pub fn merge(&mut self, other: &SizeHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

// --------------------------------------------------------------------------
// SketchSet
// --------------------------------------------------------------------------

/// Heavy-hitter capacity on stats-plane edges.
pub const STATS_TOP_K: usize = 32;

/// The per-(edge, dst-partition) bundle: distinct keys, heavy hitters,
/// and value-size quantiles, all from one pass over already-hashed
/// records.
#[derive(Debug, Clone)]
pub struct SketchSet {
    pub records: u64,
    pub bytes: u64,
    pub hll: Hll,
    pub topk: SpaceSaving,
    pub sizes: SizeHist,
}

impl Default for SketchSet {
    fn default() -> Self {
        SketchSet::new(STATS_TOP_K)
    }
}

impl SketchSet {
    pub fn new(top_k: usize) -> Self {
        SketchSet {
            records: 0,
            bytes: 0,
            hll: Hll::new(),
            topk: SpaceSaving::new(top_k),
            sizes: SizeHist::new(),
        }
    }

    /// Observe one record: its in-frame hash, key bytes (sampled into
    /// the heavy-hitter slot), and value size.
    #[inline]
    pub fn observe(&mut self, hash: u64, key: &[u8], value_len: usize) {
        self.records += 1;
        self.bytes += (key.len() + value_len) as u64;
        self.hll.insert(hash);
        self.topk.observe(hash, Some(key), 1);
        self.sizes.record(value_len as u64);
    }

    pub fn distinct(&self) -> u64 {
        self.hll.distinct()
    }

    /// Share of observed traffic guaranteed to belong to the single
    /// hottest key (0.0 when empty).
    pub fn hot_share(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        let top = self.topk.top();
        match top.first() {
            Some(e) => e.count.saturating_sub(e.err) as f64 / self.records as f64,
            None => 0.0,
        }
    }

    pub fn merge(&mut self, other: &SketchSet) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.hll.merge(&other.hll);
        self.topk.merge(&other.topk);
        self.sizes.merge(&other.sizes);
    }

    /// Condense into the serializable per-edge summary.
    pub fn summary(&self, edge: u32, shuffle: bool) -> EdgeStatsSummary {
        let top = self
            .topk
            .top()
            .into_iter()
            .take(8)
            .map(|e| TopKey {
                hash: e.hash,
                count: e.count,
                err: e.err,
                key: e.key.map(|k| k.to_vec()).unwrap_or_default(),
            })
            .collect();
        EdgeStatsSummary {
            edge,
            shuffle,
            records: self.records,
            bytes: self.bytes,
            distinct: self.distinct(),
            hot_share: self.hot_share(),
            top,
            p50: self.sizes.quantile(0.50),
            p90: self.sizes.quantile(0.90),
            p99: self.sizes.quantile(0.99),
        }
    }
}

// --------------------------------------------------------------------------
// Snapshot types (what the journal persists and /stats serves)
// --------------------------------------------------------------------------

/// One heavy hitter in a summary: hash, count bounds, and a key-byte
/// sample for naming it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKey {
    pub hash: u64,
    pub count: u64,
    pub err: u64,
    pub key: Vec<u8>,
}

/// A job-wide per-edge profile: sketches merged across every
/// destination partition.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStatsSummary {
    pub edge: u32,
    /// True for hash-exchange (shuffle) edges — the ones whose distinct
    /// count is comparable across engines.
    pub shuffle: bool,
    pub records: u64,
    pub bytes: u64,
    pub distinct: u64,
    pub hot_share: f64,
    pub top: Vec<TopKey>,
    /// Value-size quantiles (inclusive log2-bucket upper bounds).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// What kind of hop a sampled record's bin took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// A normal emit onto an edge.
    Emit,
    /// A reduce task ingested the bin (the path's terminus).
    Reduce,
}

impl HopKind {
    /// Journal code. Codes 1, 2 and 4 belonged to the removed hot-key
    /// splitter's hops and are never reused.
    pub fn as_u8(self) -> u8 {
        match self {
            HopKind::Emit => 0,
            HopKind::Reduce => 3,
        }
    }

    pub fn from_u8(v: u8) -> Option<HopKind> {
        Some(match v {
            0 => HopKind::Emit,
            3 => HopKind::Reduce,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            HopKind::Emit => "emit",
            HopKind::Reduce => "reduce",
        }
    }
}

/// One hop of a sampled record: which flowlet moved it, over which
/// edge, from which node to which, and how (emit or reduce ingest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageHop {
    pub kind: HopKind,
    pub flowlet: u32,
    pub flowlet_name: String,
    pub edge: u32,
    pub src: u32,
    pub dst: u32,
    /// Occurrences of the sampled key in the bin this hop covers.
    pub records: u32,
}

/// A sampled key and every hop its records took through the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageSample {
    pub hash: u64,
    /// First-seen key bytes (truncated to [`KEY_SAMPLE_BYTES`]).
    pub key: Vec<u8>,
    pub hops: Vec<LineageHop>,
}

/// The per-job stats record: merged per-edge summaries plus lineage
/// samples. Persisted to the journal (tag 8) and served by `/stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    pub job: String,
    pub engine: String,
    pub edges: Vec<EdgeStatsSummary>,
    pub samples: Vec<LineageSample>,
}

impl StatsSnapshot {
    /// Largest distinct-key estimate across shuffle edges — "how many
    /// keys did this job actually move between partitions".
    pub fn shuffle_distinct(&self) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.shuffle)
            .map(|e| e.distinct)
            .max()
            .unwrap_or(0)
    }

    /// Hot-key traffic share on the busiest shuffle edge.
    pub fn shuffle_hot_share(&self) -> f64 {
        self.edges
            .iter()
            .filter(|e| e.shuffle && e.records > 0)
            .max_by_key(|e| e.records)
            .map(|e| e.hot_share)
            .unwrap_or(0.0)
    }

    /// Find a sample whose key bytes match any of the candidate
    /// encodings (exact match), or whose hash matches.
    pub fn find_sample(&self, needles: &[Vec<u8>], hash: Option<u64>) -> Option<&LineageSample> {
        self.samples
            .iter()
            .find(|s| needles.iter().any(|n| n == &s.key) || hash == Some(s.hash))
    }

    /// Render as JSON for the `/stats` endpoint and scrape artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"job\":\"");
        out.push_str(&crate::json::escape(&self.job));
        out.push_str("\",\"engine\":\"");
        out.push_str(&crate::json::escape(&self.engine));
        out.push_str("\",\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"edge\":{},\"shuffle\":{},\"records\":{},\"bytes\":{},\"distinct\":{},\"hot_share\":{:.4},\"p50\":{},\"p90\":{},\"p99\":{},\"top\":[",
                e.edge, e.shuffle, e.records, e.bytes, e.distinct, e.hot_share, e.p50, e.p90, e.p99
            ));
            for (j, t) in e.top.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"key\":\"{}\",\"hash\":{},\"count\":{},\"err\":{}}}",
                    crate::json::escape(&format_key(&t.key)),
                    t.hash,
                    t.count,
                    t.err
                ));
            }
            out.push_str("]}");
        }
        out.push_str("],\"samples\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"key\":\"{}\",\"hash\":{},\"hops\":[",
                crate::json::escape(&format_key(&s.key)),
                s.hash
            ));
            for (j, h) in s.hops.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"kind\":\"{}\",\"flowlet\":\"{}\",\"edge\":{},\"src\":{},\"dst\":{},\"records\":{}}}",
                    h.kind.name(),
                    crate::json::escape(&h.flowlet_name),
                    h.edge,
                    h.src,
                    h.dst,
                    h.records
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Decode one LEB128 varint from the front of `bytes`: (value, bytes
/// consumed). Mirrors the codec crate's integer wire format without
/// depending on it (the stats layer stays dep-free).
fn read_leb128(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, b) in bytes.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

/// Encode a value as a LEB128 varint (the codec crate's integer wire
/// format).
fn write_leb128(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Human-readable key rendering for the wire encodings the workload
/// codecs produce: length-prefixed UTF-8 strings come back verbatim,
/// varint integers as `u64:N`; raw printable UTF-8 and 4/8-byte
/// little-endian integers cover custom codecs; anything else is hex.
pub fn format_key(key: &[u8]) -> String {
    if key.is_empty() {
        return "<empty>".into();
    }
    // Length-prefixed string: varint len + exactly len UTF-8 bytes.
    if let Some((len, n)) = read_leb128(key) {
        if len > 0 && n + len as usize == key.len() {
            if let Ok(s) = std::str::from_utf8(&key[n..]) {
                if s.chars().all(|c| !c.is_control()) {
                    return s.to_string();
                }
            }
        }
    }
    if let Ok(s) = std::str::from_utf8(key) {
        if s.chars().all(|c| !c.is_control()) {
            return s.to_string();
        }
    }
    // A lone varint consuming the whole buffer: an integer key.
    if let Some((v, n)) = read_leb128(key) {
        if n == key.len() {
            return format!("u64:{v}");
        }
    }
    match key.len() {
        4 => format!("u32:{}", u32::from_le_bytes(key.try_into().unwrap())),
        8 => format!("u64:{}", u64::from_le_bytes(key.try_into().unwrap())),
        _ => {
            let mut s = String::from("0x");
            for b in key.iter().take(16) {
                s.push_str(&format!("{b:02x}"));
            }
            if key.len() > 16 {
                s.push('…');
            }
            s
        }
    }
}

/// Candidate byte encodings for a user-typed key query: the codec
/// crate's wire formats first (length-prefixed UTF-8, LEB128 varint
/// for integers), then raw UTF-8 and little-endian u32/u64/i64 for
/// custom codecs.
pub fn key_query_encodings(query: &str) -> Vec<Vec<u8>> {
    let mut out = vec![query.as_bytes().to_vec()];
    // Length-prefixed string encoding (String/&str keys).
    let mut prefixed = Vec::with_capacity(query.len() + 2);
    write_leb128(query.len() as u64, &mut prefixed);
    prefixed.extend_from_slice(query.as_bytes());
    out.push(prefixed);
    if let Ok(v) = query.parse::<u64>() {
        let mut varint = Vec::with_capacity(10);
        write_leb128(v, &mut varint);
        out.push(varint);
        out.push((v as u32).to_le_bytes().to_vec());
        out.push(v.to_le_bytes().to_vec());
    }
    if let Ok(v) = query.parse::<i64>() {
        // Signed integers ride the codec's zigzag varint.
        let mut zigzag = Vec::with_capacity(10);
        write_leb128(((v << 1) ^ (v >> 63)) as u64, &mut zigzag);
        if !out.contains(&zigzag) {
            out.push(zigzag);
        }
        let le = v.to_le_bytes().to_vec();
        if !out.contains(&le) {
            out.push(le);
        }
    }
    if let Some(hex) = query.strip_prefix("0x") {
        if hex.len() % 2 == 0 {
            if let Ok(bytes) = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
            {
                out.push(bytes);
            }
        }
    }
    out
}

/// Render one sample's path the way `hamr explain` prints it.
pub fn render_explain(job: &str, sample: &LineageSample) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "key {} (hash {:#018x}) in job '{}':\n",
        format_key(&sample.key),
        sample.hash,
        job
    ));
    for h in &sample.hops {
        let arrow = match h.kind {
            HopKind::Emit => "emitted",
            HopKind::Reduce => "ingested by reduce",
        };
        out.push_str(&format!(
            "  {} via flowlet '{}' edge {}: node {} -> node {} ({} record{})\n",
            arrow,
            h.flowlet_name,
            h.edge,
            h.src,
            h.dst,
            h.records,
            if h.records == 1 { "" } else { "s" }
        ));
    }
    let reducer = sample
        .hops
        .iter()
        .rev()
        .find(|h| h.kind == HopKind::Reduce)
        .map(|h| h.dst);
    match reducer {
        Some(n) => out.push_str(&format!("  final reducer: node {n}\n")),
        None => out.push_str("  final reducer: (no consume hop recorded)\n"),
    }
    out
}

// --------------------------------------------------------------------------
// StatsPlane — the per-job runtime container
// --------------------------------------------------------------------------

/// Most lineage samples kept per job.
pub const MAX_LINEAGE_SAMPLES: usize = 256;
/// Most hops kept per sample.
pub const MAX_LINEAGE_HOPS: usize = 96;

/// Per-job runtime stats container: one [`SketchSet`] per
/// (edge, destination partition), plus the lineage sample map. Shared
/// `Arc` across every node's workers; each slot has its own mutex, so
/// contention is per-(edge, dst), and each bin close locks exactly
/// once.
pub struct StatsPlane {
    mode: StatsMode,
    parts: usize,
    slots: Vec<Mutex<SketchSet>>,
    /// Edges whose keys are eligible for lineage sampling. Loader
    /// edges carry synthetic line-offset keys that would otherwise
    /// fill the sample budget before any shuffle key arrives.
    sampled_edges: Vec<bool>,
    lineage: Mutex<BTreeMap<u64, LineageSample>>,
}

impl StatsPlane {
    pub fn new(edges: usize, parts: usize, mode: StatsMode) -> Self {
        let parts = parts.max(1);
        let n = edges.max(1) * parts;
        StatsPlane {
            mode,
            parts,
            slots: (0..n).map(|_| Mutex::new(SketchSet::default())).collect(),
            sampled_edges: Vec::new(),
            lineage: Mutex::new(BTreeMap::new()),
        }
    }

    /// Restrict lineage sampling to the flagged edges (the cluster
    /// passes its hash-exchange map). Edges beyond the slice — and
    /// every edge when this is never called — stay eligible.
    pub fn with_sampled_edges(mut self, flags: &[bool]) -> Self {
        self.sampled_edges = flags.to_vec();
        self
    }

    fn edge_sampled(&self, edge: u32) -> bool {
        self.sampled_edges
            .get(edge as usize)
            .copied()
            .unwrap_or(true)
    }

    pub fn mode(&self) -> StatsMode {
        self.mode
    }

    pub fn lineage_on(&self) -> bool {
        self.mode.lineage_one_in().is_some()
    }

    fn slot(&self, edge: u32, dst: u32) -> &Mutex<SketchSet> {
        let i = edge as usize * self.parts + (dst as usize % self.parts);
        &self.slots[i.min(self.slots.len() - 1)]
    }

    /// Fold one finished bin into the (edge, dst) sketch slot and, when
    /// lineage is on, append an emit hop for every sampled key in the
    /// bin.
    /// `iter` yields `(hash, key-bytes, value-len)` straight from the
    /// frame — the hash is the one computed at emit, never recomputed.
    #[allow(clippy::too_many_arguments)]
    pub fn fold_bin<'a>(
        &self,
        edge: u32,
        dst: u32,
        flowlet: u32,
        flowlet_name: &str,
        src: u32,
        iter: impl Iterator<Item = (u64, &'a [u8], usize)>,
    ) {
        let one_in = self
            .mode
            .lineage_one_in()
            .filter(|_| self.edge_sampled(edge));
        // (hash, key, occurrences) for sampled keys in this bin.
        let mut sampled: Vec<(u64, Vec<u8>, u32)> = Vec::new();
        {
            let mut set = self
                .slot(edge, dst)
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            for (hash, key, vlen) in iter {
                set.observe(hash, key, vlen);
                if let Some(n) = one_in {
                    if sample_hit(hash, n) {
                        match sampled.iter_mut().find(|(h, _, _)| *h == hash) {
                            Some((_, _, c)) => *c += 1,
                            None => sampled.push((
                                hash,
                                key[..key.len().min(KEY_SAMPLE_BYTES)].to_vec(),
                                1,
                            )),
                        }
                    }
                }
            }
        }
        if sampled.is_empty() {
            return;
        }
        let mut lineage = self.lineage.lock().unwrap_or_else(|p| p.into_inner());
        for (hash, key, records) in sampled {
            let entry = match lineage.get_mut(&hash) {
                Some(e) => e,
                None => {
                    if lineage.len() >= MAX_LINEAGE_SAMPLES {
                        continue;
                    }
                    lineage.entry(hash).or_insert(LineageSample {
                        hash,
                        key,
                        hops: Vec::new(),
                    })
                }
            };
            if entry.hops.len() < MAX_LINEAGE_HOPS {
                entry.hops.push(LineageHop {
                    kind: HopKind::Emit,
                    flowlet,
                    flowlet_name: flowlet_name.to_string(),
                    edge,
                    src,
                    dst,
                    records,
                });
            }
        }
    }

    /// Record a reduce-ingest hop for
    /// every already-sampled hash in the bin. Emit-side hops always
    /// precede consumption, so only known hashes are updated — no new
    /// samples originate here.
    #[allow(clippy::too_many_arguments)]
    pub fn consume_bin(
        &self,
        edge: u32,
        node: u32,
        flowlet: u32,
        flowlet_name: &str,
        src: u32,
        hashes: impl Iterator<Item = u64>,
    ) {
        let Some(n) = self.mode.lineage_one_in() else {
            return;
        };
        let mut hits: Vec<(u64, u32)> = Vec::new();
        for h in hashes {
            if sample_hit(h, n) {
                match hits.iter_mut().find(|(x, _)| *x == h) {
                    Some((_, c)) => *c += 1,
                    None => hits.push((h, 1)),
                }
            }
        }
        if hits.is_empty() {
            return;
        }
        let mut lineage = self.lineage.lock().unwrap_or_else(|p| p.into_inner());
        for (hash, records) in hits {
            if let Some(entry) = lineage.get_mut(&hash) {
                if entry.hops.len() < MAX_LINEAGE_HOPS {
                    entry.hops.push(LineageHop {
                        kind: HopKind::Reduce,
                        flowlet,
                        flowlet_name: flowlet_name.to_string(),
                        edge,
                        src,
                        dst: node,
                        records,
                    });
                }
            }
        }
    }

    /// Per-(edge, dst) summary numbers for gauge publication:
    /// `(records, distinct, hot_share)`; `None` for untouched slots.
    pub fn slot_stats(&self, edge: u32, dst: u32) -> Option<(u64, u64, f64)> {
        let set = self
            .slot(edge, dst)
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if set.records == 0 {
            return None;
        }
        Some((set.records, set.distinct(), set.hot_share()))
    }

    /// Merge every destination's sketches per edge and build the
    /// serializable snapshot. `shuffle_edges[e]` marks hash-exchange
    /// edges (comparable across engines).
    pub fn snapshot(&self, job: &str, engine: &str, shuffle_edges: &[bool]) -> StatsSnapshot {
        let edges_n = self.slots.len() / self.parts;
        let mut edges = Vec::new();
        for e in 0..edges_n {
            let mut merged = SketchSet::default();
            for d in 0..self.parts {
                let set = self.slots[e * self.parts + d]
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                if set.records > 0 {
                    merged.merge(&set);
                }
            }
            if merged.records == 0 {
                continue;
            }
            let shuffle = shuffle_edges.get(e).copied().unwrap_or(false);
            edges.push(merged.summary(e as u32, shuffle));
        }
        let samples = self
            .lineage
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .cloned()
            .collect();
        StatsSnapshot {
            job: job.to_string(),
            engine: engine.to_string(),
            edges,
            samples,
        }
    }
}

impl std::fmt::Debug for StatsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsPlane")
            .field("mode", &self.mode)
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(x: u64) -> u64 {
        // splitmix64 finalizer — the tests' stand-in for stable_hash.
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn hll_small_cardinalities_are_exact() {
        let mut h = Hll::new();
        for i in 0..5u64 {
            for _ in 0..100 {
                h.insert(mix(i));
            }
        }
        assert_eq!(h.distinct(), 5);
    }

    #[test]
    fn hll_large_cardinality_within_three_sigma() {
        let mut h = Hll::new();
        let n = 100_000u64;
        for i in 0..n {
            h.insert(mix(i));
        }
        let est = h.estimate();
        let bound = 3.0 * Hll::standard_error() * n as f64;
        assert!(
            (est - n as f64).abs() <= bound,
            "estimate {est} off from {n} by more than {bound}"
        );
    }

    #[test]
    fn hll_merge_is_register_max() {
        let mut a = Hll::new();
        let mut b = Hll::new();
        for i in 0..1000u64 {
            a.insert(mix(i));
            b.insert(mix(i + 500));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.registers(), ba.registers());
        let est = ab.estimate();
        assert!((est - 1500.0).abs() < 1500.0 * 0.05, "union estimate {est}");
    }

    #[test]
    fn spacesaving_tracks_heavy_hitter_exactly_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for _ in 0..100 {
            s.observe(1, Some(b"hot"), 1);
        }
        for i in 2..6u64 {
            s.observe(i, None, 1);
        }
        assert_eq!(s.get(1), Some((100, 0)));
        assert_eq!(s.guaranteed(1), 100);
        let top = s.top();
        assert_eq!(top[0].hash, 1);
        assert_eq!(top[0].key.as_deref(), Some(&b"hot"[..]));
    }

    #[test]
    fn spacesaving_invariant_survives_eviction() {
        let mut s = SpaceSaving::new(4);
        let mut truth = std::collections::HashMap::new();
        for i in 0..1000u64 {
            let k = i % 13;
            s.observe(k, None, 1);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for e in s.top() {
            let t = truth[&e.hash];
            assert!(e.count >= t, "count {} < true {t}", e.count);
            assert!(
                e.count - e.err <= t,
                "guaranteed {} > true {t}",
                e.count - e.err
            );
        }
    }

    #[test]
    fn size_hist_quantiles_are_monotone_and_bracketing() {
        let mut h = SizeHist::new();
        for s in [0u64, 1, 7, 8, 100, 1000, 5000] {
            h.record(s);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
        assert!(h.quantile(1.0) >= 5000);
        assert!(h.quantile(0.0) <= 1);
    }

    #[test]
    fn sample_gate_is_deterministic() {
        for h in 0..1000u64 {
            assert_eq!(sample_hit(h, 7), sample_hit(h, 7));
            assert!(sample_hit(h, 1));
        }
    }

    #[test]
    fn plane_folds_bins_and_records_lineage() {
        let plane = StatsPlane::new(2, 4, StatsMode::Full { sample_one_in: 1 });
        let key = b"k1".to_vec();
        let h = mix(1);
        plane.fold_bin(
            1,
            2,
            0,
            "mapper",
            0,
            vec![(h, &key[..], 10), (h, &key[..], 12)].into_iter(),
        );
        plane.consume_bin(1, 2, 1, "reducer", 0, vec![h].into_iter());
        let snap = plane.snapshot("job", "hamr", &[false, true]);
        assert_eq!(snap.edges.len(), 1);
        assert_eq!(snap.edges[0].edge, 1);
        assert!(snap.edges[0].shuffle);
        assert_eq!(snap.edges[0].records, 2);
        assert_eq!(snap.edges[0].distinct, 1);
        assert_eq!(snap.samples.len(), 1);
        let s = &snap.samples[0];
        assert_eq!(s.key, key);
        assert_eq!(s.hops.len(), 2);
        assert_eq!(s.hops[0].kind, HopKind::Emit);
        assert_eq!(s.hops[0].records, 2);
        assert_eq!(s.hops[1].kind, HopKind::Reduce);
        let text = render_explain("job", s);
        assert!(text.contains("reduce"), "{text}");
        assert!(snap.to_json().contains("\"edges\""));
    }

    #[test]
    fn key_queries_cover_codec_encodings() {
        let enc = key_query_encodings("5");
        assert!(enc.contains(&b"5".to_vec()));
        assert!(enc.contains(&5u32.to_le_bytes().to_vec()));
        assert!(enc.contains(&5u64.to_le_bytes().to_vec()));
        assert!(key_query_encodings("0x0102").contains(&vec![1u8, 2]));
    }
}

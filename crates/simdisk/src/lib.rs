//! Per-node local disk model.
//!
//! The paper's cluster has SATA-III local disks, and the whole
//! HAMR-vs-Hadoop comparison hinges on how many bytes each engine pushes
//! through them (map-side sort spills, shuffle files, inter-job
//! intermediates for Hadoop; reduce-side overflow spills for HAMR).
//!
//! This crate substitutes a *modeled* disk: bytes are retained in RAM
//! (deterministic, no filesystem flakiness, no page-cache distortion at
//! our scaled-down sizes) but every read and write charges wall-clock
//! time against a single-spindle serialization model:
//!
//! ```text
//! start      = max(now, disk_busy_until)
//! busy_until = start + op_latency + bytes / bandwidth
//! caller sleeps until busy_until
//! ```
//!
//! so concurrent tasks on one node contend for their disk exactly as
//! Hadoop's map spills contend for a real spindle. `DiskConfig::instant()`
//! disables all charging for correctness tests.

mod throttle;

pub use throttle::Throttle;

use hamr_trace::{Counter, EventKind, Gauge, Labels, MetricsRegistry, Tracer, WORKER_DISK};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Disk timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskConfig {
    /// Sequential bandwidth in bytes/second shared by reads and writes.
    /// `None` = unlimited (no sleeping).
    pub bandwidth: Option<u64>,
    /// Fixed cost per IO operation (seek + syscall).
    pub op_latency: Duration,
    /// IO is charged in chunks of this many bytes; one `op_latency` per
    /// chunk. Mirrors block-sized transfers.
    pub chunk_size: usize,
}

impl DiskConfig {
    /// No time charging at all.
    pub fn instant() -> Self {
        DiskConfig {
            bandwidth: None,
            op_latency: Duration::ZERO,
            chunk_size: 1 << 20,
        }
    }

    /// A throttled disk with the given sequential bandwidth.
    pub fn modeled(bandwidth_bytes_per_sec: u64, op_latency: Duration) -> Self {
        DiskConfig {
            bandwidth: Some(bandwidth_bytes_per_sec),
            op_latency,
            chunk_size: 1 << 20,
        }
    }

    /// True when no throttle thread state is needed.
    pub fn is_instant(&self) -> bool {
        self.bandwidth.is_none() && self.op_latency.is_zero()
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::instant()
    }
}

/// Errors from disk operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// Named file does not exist.
    NotFound(String),
    /// A file with this name already exists.
    AlreadyExists(String),
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::NotFound(n) => write!(f, "file not found: {n}"),
            DiskError::AlreadyExists(n) => write!(f, "file already exists: {n}"),
        }
    }
}

impl std::error::Error for DiskError {}

/// IO counters for one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskMetrics {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub write_ops: u64,
    pub read_ops: u64,
}

#[derive(Default)]
struct MetricsInner {
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
}

/// Live registry series for one disk: byte and op counters per
/// direction. Disabled (all no-op) until [`Disk::attach_registry`].
#[derive(Default)]
struct DiskCounters {
    read_bytes: Counter,
    write_bytes: Counter,
    read_ops: Counter,
    write_ops: Counter,
    used_bytes: Gauge,
}

struct DiskInner {
    config: DiskConfig,
    files: RwLock<HashMap<String, Arc<Vec<u8>>>>,
    throttle: Throttle,
    metrics: MetricsInner,
    temp_counter: AtomicU64,
    /// Fast-path flag mirroring `tracer.is_some()`, so untraced IO pays
    /// one relaxed load instead of an RwLock acquisition.
    trace_on: AtomicBool,
    tracer: RwLock<Option<(Tracer, u32)>>,
    /// Fast-path flag mirroring "registry counters attached".
    reg_on: AtomicBool,
    counters: RwLock<DiskCounters>,
}

/// One node's local disk. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Disk {
    inner: Arc<DiskInner>,
}

impl Disk {
    pub fn new(config: DiskConfig) -> Self {
        Disk {
            inner: Arc::new(DiskInner {
                throttle: Throttle::new(),
                config,
                files: RwLock::new(HashMap::new()),
                metrics: MetricsInner::default(),
                temp_counter: AtomicU64::new(0),
                trace_on: AtomicBool::new(false),
                tracer: RwLock::new(None),
                reg_on: AtomicBool::new(false),
                counters: RwLock::new(DiskCounters::default()),
            }),
        }
    }

    /// Bind this disk to a tracer for the duration of a run; every read
    /// and write emits a `DiskRead`/`DiskWrite` event attributed to
    /// cluster node `node`. Disks are long-lived substrates, so the
    /// driver attaches before a traced run and detaches after.
    pub fn attach_tracer(&self, tracer: Tracer, node: u32) {
        *self.inner.tracer.write() = Some((tracer, node));
        self.inner.trace_on.store(true, Ordering::Release);
    }

    /// Stop emitting trace events.
    pub fn detach_tracer(&self) {
        self.inner.trace_on.store(false, Ordering::Release);
        *self.inner.tracer.write() = None;
    }

    /// Bind this disk's IO to the unified registry: every read/write
    /// bumps `disk_{read,write}_bytes_total` and
    /// `disk_{read,write}_ops_total` counters labeled with `engine` and
    /// `node`. Counters are registered once and shared across attaches
    /// (registry counters are cumulative), so the series covers all IO
    /// performed while any run had the registry attached. The
    /// `disk_used_bytes` gauge is seeded with the current usage so
    /// subsequent seal/delete deltas stay exact.
    pub fn attach_registry(&self, registry: &MetricsRegistry, engine: &str, node: u32) {
        let labels = Labels::new().engine(engine).node(node);
        let used_bytes = registry.gauge("disk_used_bytes", labels.clone());
        used_bytes.set(self.used_bytes() as i64);
        *self.inner.counters.write() = DiskCounters {
            read_bytes: registry.counter("disk_read_bytes_total", labels.clone()),
            write_bytes: registry.counter("disk_write_bytes_total", labels.clone()),
            read_ops: registry.counter("disk_read_ops_total", labels.clone()),
            write_ops: registry.counter("disk_write_ops_total", labels),
            used_bytes,
        };
        self.inner.reg_on.store(true, Ordering::Release);
    }

    /// Stop counting IO into the registry.
    pub fn detach_registry(&self) {
        self.inner.reg_on.store(false, Ordering::Release);
        *self.inner.counters.write() = DiskCounters::default();
    }

    fn registry_io(&self, read: bool, bytes: usize) {
        if !self.inner.reg_on.load(Ordering::Acquire) {
            return;
        }
        let counters = self.inner.counters.read();
        if read {
            counters.read_bytes.add(bytes as u64);
            counters.read_ops.inc();
        } else {
            counters.write_bytes.add(bytes as u64);
            counters.write_ops.inc();
        }
    }

    fn registry_used(&self, delta: i64) {
        if self.inner.reg_on.load(Ordering::Acquire) {
            self.inner.counters.read().used_bytes.add(delta);
        }
    }

    fn trace_io(&self, read: bool, bytes: usize) {
        if !self.inner.trace_on.load(Ordering::Acquire) {
            return;
        }
        if let Some((tracer, node)) = self.inner.tracer.read().as_ref() {
            let kind = if read {
                EventKind::DiskRead {
                    bytes: bytes as u64,
                }
            } else {
                EventKind::DiskWrite {
                    bytes: bytes as u64,
                }
            };
            tracer.emit(*node, WORKER_DISK, kind);
        }
    }

    /// Charge disk time for `bytes` of sequential IO and sleep it off.
    fn charge(&self, bytes: usize) {
        let cfg = &self.inner.config;
        if cfg.is_instant() {
            return;
        }
        let chunks = bytes.div_ceil(cfg.chunk_size).max(1) as u32;
        let mut dur = cfg.op_latency * chunks;
        if let Some(bw) = cfg.bandwidth {
            dur += Duration::from_secs_f64(bytes as f64 / bw as f64);
        }
        self.inner.throttle.acquire(dur);
    }

    /// Begin writing a new file. Fails if the name exists.
    pub fn create(&self, name: &str) -> Result<FileWriter, DiskError> {
        let mut files = self.inner.files.write();
        if files.contains_key(name) {
            return Err(DiskError::AlreadyExists(name.to_string()));
        }
        // Reserve the name with an empty file so concurrent creates fail.
        files.insert(name.to_string(), Arc::new(Vec::new()));
        Ok(FileWriter {
            disk: self.clone(),
            name: name.to_string(),
            buf: Vec::new(),
            uncharged: 0,
            sealed: false,
        })
    }

    /// Open a sealed file for reading.
    pub fn open(&self, name: &str) -> Result<FileReader, DiskError> {
        let files = self.inner.files.read();
        let data = files
            .get(name)
            .cloned()
            .ok_or_else(|| DiskError::NotFound(name.to_string()))?;
        Ok(FileReader {
            disk: self.clone(),
            data,
            pos: 0,
        })
    }

    /// Read a whole file, charging for its full size.
    pub fn read_all(&self, name: &str) -> Result<Arc<Vec<u8>>, DiskError> {
        let data = {
            let files = self.inner.files.read();
            files
                .get(name)
                .cloned()
                .ok_or_else(|| DiskError::NotFound(name.to_string()))?
        };
        self.charge(data.len());
        self.inner
            .metrics
            .bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.metrics.read_ops.fetch_add(1, Ordering::Relaxed);
        self.trace_io(true, data.len());
        self.registry_io(true, data.len());
        Ok(data)
    }

    /// Write a whole file in one operation.
    pub fn write_all(&self, name: &str, data: &[u8]) -> Result<(), DiskError> {
        let mut w = self.create(name)?;
        w.write(data);
        w.seal();
        Ok(())
    }

    /// Remove a file; succeeds silently if absent (like `rm -f`).
    pub fn delete(&self, name: &str) {
        if let Some(old) = self.inner.files.write().remove(name) {
            self.registry_used(-(old.len() as i64));
        }
    }

    pub fn exists(&self, name: &str) -> bool {
        self.inner.files.read().contains_key(name)
    }

    /// Size in bytes of a sealed file.
    pub fn len(&self, name: &str) -> Result<usize, DiskError> {
        self.inner
            .files
            .read()
            .get(name)
            .map(|d| d.len())
            .ok_or_else(|| DiskError::NotFound(name.to_string()))
    }

    /// True when the disk holds no files.
    pub fn is_empty(&self) -> bool {
        self.inner.files.read().is_empty()
    }

    /// All file names, unsorted.
    pub fn list(&self) -> Vec<String> {
        self.inner.files.read().keys().cloned().collect()
    }

    /// Total bytes stored.
    pub fn used_bytes(&self) -> usize {
        self.inner.files.read().values().map(|d| d.len()).sum()
    }

    /// A unique file name for spill/temp files.
    pub fn temp_name(&self, prefix: &str) -> String {
        let n = self.inner.temp_counter.fetch_add(1, Ordering::Relaxed);
        format!("{prefix}.tmp.{n}")
    }

    pub fn metrics(&self) -> DiskMetrics {
        let m = &self.inner.metrics;
        DiskMetrics {
            bytes_written: m.bytes_written.load(Ordering::Relaxed),
            bytes_read: m.bytes_read.load(Ordering::Relaxed),
            write_ops: m.write_ops.load(Ordering::Relaxed),
            read_ops: m.read_ops.load(Ordering::Relaxed),
        }
    }
}

/// Buffered writer for one file. Time is charged per flushed chunk.
///
/// Dropping without [`FileWriter::seal`] still publishes the bytes
/// written so far (crash-consistency is out of scope for the model).
pub struct FileWriter {
    disk: Disk,
    name: String,
    buf: Vec<u8>,
    uncharged: usize,
    sealed: bool,
}

impl FileWriter {
    /// Append bytes, charging disk time chunk-by-chunk.
    pub fn write(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.uncharged += data.len();
        let chunk = self.disk.inner.config.chunk_size;
        while self.uncharged >= chunk {
            self.disk.charge(chunk);
            self.record_write(chunk);
            self.uncharged -= chunk;
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The file name being written.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn record_write(&self, bytes: usize) {
        self.disk
            .inner
            .metrics
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.disk
            .inner
            .metrics
            .write_ops
            .fetch_add(1, Ordering::Relaxed);
        self.disk.trace_io(false, bytes);
        self.disk.registry_io(false, bytes);
    }

    /// Flush remaining bytes, publish the file, and return its size.
    pub fn seal(mut self) -> usize {
        self.finish()
    }

    fn finish(&mut self) -> usize {
        if self.sealed {
            return self.buf.len();
        }
        self.sealed = true;
        if self.uncharged > 0 {
            self.disk.charge(self.uncharged);
            self.record_write(self.uncharged);
            self.uncharged = 0;
        }
        let data = std::mem::take(&mut self.buf);
        let len = data.len();
        let old = self
            .disk
            .inner
            .files
            .write()
            .insert(self.name.clone(), Arc::new(data));
        let old_len = old.map(|d| d.len()).unwrap_or(0);
        self.disk.registry_used(len as i64 - old_len as i64);
        len
    }
}

impl Drop for FileWriter {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Sequential reader over a sealed file. Time is charged per `read`.
pub struct FileReader {
    disk: Disk,
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl FileReader {
    /// Read up to `buf.len()` bytes; returns 0 at end of file.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.data.len() - self.pos);
        if n == 0 {
            return 0;
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        self.disk.charge(n);
        self.disk
            .inner
            .metrics
            .bytes_read
            .fetch_add(n as u64, Ordering::Relaxed);
        self.disk
            .inner
            .metrics
            .read_ops
            .fetch_add(1, Ordering::Relaxed);
        self.disk.trace_io(true, n);
        self.disk.registry_io(true, n);
        n
    }

    /// Read the remainder of the file.
    pub fn read_to_end(&mut self) -> Vec<u8> {
        let rest = self.data[self.pos..].to_vec();
        if !rest.is_empty() {
            self.disk.charge(rest.len());
            self.disk
                .inner
                .metrics
                .bytes_read
                .fetch_add(rest.len() as u64, Ordering::Relaxed);
            self.disk
                .inner
                .metrics
                .read_ops
                .fetch_add(1, Ordering::Relaxed);
            self.disk.trace_io(true, rest.len());
            self.disk.registry_io(true, rest.len());
        }
        self.pos = self.data.len();
        rest
    }

    /// Total file size.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the file is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn write_seal_read_roundtrip() {
        let disk = Disk::new(DiskConfig::instant());
        let mut w = disk.create("a").unwrap();
        w.write(b"hello ");
        w.write(b"world");
        assert_eq!(w.seal(), 11);
        assert_eq!(disk.len("a").unwrap(), 11);
        let mut r = disk.open("a").unwrap();
        assert_eq!(r.read_to_end(), b"hello world");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn create_duplicate_fails() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", b"x").unwrap();
        assert!(matches!(disk.create("a"), Err(DiskError::AlreadyExists(_))));
    }

    #[test]
    fn open_missing_fails() {
        let disk = Disk::new(DiskConfig::instant());
        assert!(matches!(disk.open("nope"), Err(DiskError::NotFound(_))));
        assert!(matches!(disk.len("nope"), Err(DiskError::NotFound(_))));
    }

    #[test]
    fn delete_then_recreate() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", b"1").unwrap();
        disk.delete("a");
        assert!(!disk.exists("a"));
        disk.write_all("a", b"22").unwrap();
        assert_eq!(disk.len("a").unwrap(), 2);
    }

    #[test]
    fn partial_reads() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", &[1, 2, 3, 4, 5]).unwrap();
        let mut r = disk.open("a").unwrap();
        let mut buf = [0u8; 2];
        assert_eq!(r.read(&mut buf), 2);
        assert_eq!(buf, [1, 2]);
        assert_eq!(r.read(&mut buf), 2);
        assert_eq!(buf, [3, 4]);
        assert_eq!(r.read(&mut buf), 1);
        assert_eq!(buf[0], 5);
        assert_eq!(r.read(&mut buf), 0);
    }

    #[test]
    fn metrics_track_io() {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("a", &[0u8; 100]).unwrap();
        let _ = disk.read_all("a").unwrap();
        let m = disk.metrics();
        assert_eq!(m.bytes_written, 100);
        assert_eq!(m.bytes_read, 100);
        assert!(m.write_ops >= 1);
        assert_eq!(m.read_ops, 1);
    }

    #[test]
    fn attached_registry_counts_io() {
        use hamr_trace::SampleValue;
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("before", &[0u8; 64]).unwrap(); // uncounted
        let registry = MetricsRegistry::new();
        disk.attach_registry(&registry, "hamr", 2);
        disk.write_all("a", &[0u8; 100]).unwrap();
        let _ = disk.read_all("a").unwrap();
        let labels = Labels::new().engine("hamr").node(2);
        let snap = registry.snapshot();
        assert!(matches!(
            snap.get("disk_write_bytes_total", &labels),
            Some(SampleValue::Counter(100))
        ));
        assert!(matches!(
            snap.get("disk_read_bytes_total", &labels),
            Some(SampleValue::Counter(100))
        ));
        assert!(matches!(
            snap.get("disk_read_ops_total", &labels),
            Some(SampleValue::Counter(1))
        ));
        disk.detach_registry();
        disk.write_all("after", &[0u8; 32]).unwrap();
        assert_eq!(
            registry.snapshot().counter_total("disk_write_bytes_total"),
            100,
            "detached IO is not counted"
        );
        // Re-attach resumes the same cumulative series.
        disk.attach_registry(&registry, "hamr", 2);
        disk.write_all("again", &[0u8; 10]).unwrap();
        assert_eq!(
            registry.snapshot().counter_total("disk_write_bytes_total"),
            110
        );
    }

    #[test]
    fn writer_drop_publishes_partial_file() {
        let disk = Disk::new(DiskConfig::instant());
        {
            let mut w = disk.create("a").unwrap();
            w.write(b"partial");
            // dropped without seal
        }
        assert_eq!(disk.read_all("a").unwrap().as_slice(), b"partial");
    }

    #[test]
    fn throttled_write_takes_time() {
        // 1 MB/s: 100 KB should take ~100 ms.
        let disk = Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO));
        let start = Instant::now();
        disk.write_all("a", &[0u8; 100_000]).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(90),
            "write returned too fast: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn throttled_reads_serialize_across_threads() {
        let disk = Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO));
        {
            // Write without charge by using an instant disk sharing files?
            // Simpler: accept the write charge once.
            disk.write_all("a", &[0u8; 50_000]).unwrap();
        }
        let start = Instant::now();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let disk = disk.clone();
                std::thread::spawn(move || {
                    let _ = disk.read_all("a").unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Two 50 KB reads at 1 MB/s through one spindle: >= ~100 ms.
        assert!(
            start.elapsed() >= Duration::from_millis(90),
            "reads did not serialize: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn temp_names_are_unique() {
        let disk = Disk::new(DiskConfig::instant());
        let a = disk.temp_name("spill");
        let b = disk.temp_name("spill");
        assert_ne!(a, b);
        assert!(a.starts_with("spill.tmp."));
    }

    #[test]
    fn used_bytes_and_list() {
        let disk = Disk::new(DiskConfig::instant());
        assert!(disk.is_empty());
        disk.write_all("a", &[0u8; 10]).unwrap();
        disk.write_all("b", &[0u8; 20]).unwrap();
        assert_eq!(disk.used_bytes(), 30);
        let mut names = disk.list();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        assert!(!disk.is_empty());
    }
}

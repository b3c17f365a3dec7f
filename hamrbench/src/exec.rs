//! Running the engines and checking what they return.

use hamr_workloads::{BenchOutput, Env};
use std::sync::Arc;
use std::time::Instant;

/// Wall seconds of `f`, timed around the call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The MapReduce answer every other execution is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub checksum: u64,
    pub records: u64,
}

/// Executions attempted and failed, on both engines. An execution
/// fails when it errors, or when its checksum or record count differs
/// from the reference. Failures are counted, never fatal: the run goes
/// on and reports them.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human-readable report.
    pub notes: Vec<String>,
    reference: Option<Reference>,
    /// Self-test hook: flip a bit of the reference once it is taken.
    corrupt: bool,
}

impl Tally {
    pub fn new(corrupt_reference: bool) -> Tally {
        Tally {
            corrupt: corrupt_reference,
            ..Tally::default()
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Count a MapReduce execution. The first one that succeeds
    /// becomes the reference; later ones are checked against it.
    pub fn mapred(&mut self, what: &str, res: Result<BenchOutput, String>) -> Option<BenchOutput> {
        if let (None, Ok(out)) = (self.reference, &res) {
            self.attempted += 1;
            let checksum = out.checksum ^ u64::from(self.corrupt);
            self.reference = Some(Reference {
                checksum,
                records: out.records,
            });
            return res.ok();
        }
        self.check(what, res)
    }

    /// Count an execution checked against the reference.
    pub fn check(&mut self, what: &str, res: Result<BenchOutput, String>) -> Option<BenchOutput> {
        self.attempted += 1;
        let problem = match (&res, self.reference) {
            (Err(e), _) => Some(format!("error: {e}")),
            (Ok(_), None) => Some("no MapReduce reference to check against".to_string()),
            (Ok(o), Some(r)) if o.checksum != r.checksum || o.records != r.records => {
                Some(format!(
                    "checksum {:016x} over {} records, reference {:016x} over {}",
                    o.checksum, o.records, r.checksum, r.records
                ))
            }
            _ => None,
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{what}: {p}"));
            }
        }
        res.ok()
    }
}

/// The seeded input as the benchmark itself reads it through the DFS
/// split/block path: every file present after seeding.
#[derive(Debug, Clone)]
pub struct Input {
    pub paths: Vec<String>,
    pub blocks: Vec<Arc<Vec<u8>>>,
    pub bytes: u64,
    pub lines: u64,
}

impl Input {
    /// Read every block of every file and count its lines. Errors if
    /// the count disagrees with the DFS's own split metadata.
    pub fn read(env: &Env, paths: Vec<String>) -> Result<Input, String> {
        let mut blocks = Vec::new();
        let (mut bytes, mut lines, mut meta_lines) = (0u64, 0u64, 0u64);
        for path in &paths {
            for split in env.dfs.splits(path).map_err(|e| e.to_string())? {
                let block = env
                    .dfs
                    .read_block(path, split.block_index, None)
                    .map_err(|e| e.to_string())?;
                bytes += block.len() as u64;
                lines += block.iter().filter(|&&b| b == b'\n').count() as u64;
                meta_lines += split.records as u64;
                blocks.push(block);
            }
        }
        if lines != meta_lines || lines == 0 {
            return Err(format!(
                "input has {lines} lines but the DFS split metadata says {meta_lines}"
            ));
        }
        Ok(Input {
            paths,
            blocks,
            bytes,
            lines,
        })
    }

    /// Delete everything in the DFS but the input, so repeated
    /// MapReduce runs do not pile their outputs up in memory.
    pub fn prune_others(&self, env: &Env) {
        for path in env.dfs.list("") {
            if !self.paths.contains(&path) {
                let _ = env.dfs.delete(&path);
            }
        }
    }
}

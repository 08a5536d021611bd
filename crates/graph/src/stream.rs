//! The spill-and-merge half of a memory-budgeted
//! [`GraphBuilder`](crate::GraphBuilder).
//!
//! A builder normally holds its full raw edge list in memory before the
//! sort/dedup/CSR pass — at the xl tier (~1M nodes, millions of raw
//! edges with duplicates) that transient buffer dominates peak memory.
//! [`GraphBuilder::budgeted`](crate::GraphBuilder::budgeted) bounds it:
//! when the edge buffer fills, it is sorted, deduplicated, and spilled
//! to a binary *run* file under a scratch directory; the build
//! k-way-merges the sorted runs (deduplicating across runs on the fly)
//! straight into the CSR constructor.
//!
//! The budget bounds the builder's *construction scratch* — the edge
//! buffer while filling, and the merge read buffers while draining —
//! not the finished CSR (which is the output, sized by the graph).
//! Sort+dedup is order-independent, so a budgeted build is
//! **identical** to the in-memory one over the same edges.
//!
//! The crate stays dependency-free:
//! [`GraphBuilder::build_counted`](crate::GraphBuilder::build_counted)
//! *returns* the [`StreamStats`]; callers that hold an instrument report
//! them (the same convention as [`crate::bfs_bitset::BfsStats`]).

use crate::graph::{Edge, NodeId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Construction-scratch accounting for one build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Peak construction-scratch bytes: the larger of the fill-time edge
    /// buffer and the merge-time read buffers.
    pub peak_bytes: u64,
    /// Sorted runs spilled to disk (0 when the build fit in the buffer).
    pub spill_runs: u64,
}

/// Bytes an edge buffer of `len` edges holds.
fn edge_bytes(len: usize) -> u64 {
    (len * std::mem::size_of::<Edge>()) as u64
}

/// Distinguishes concurrent builders' run files within one process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Smallest usable in-memory run (edges); below this, spill churn
/// would dominate and tiny budgets would thrash.
const MIN_RUN_EDGES: usize = 1024;

/// A budgeted builder's spilled runs: where they go, the files written
/// so far, and the merge's read budget. Dropping it (an abandoned
/// build) removes the run files.
#[derive(Debug)]
pub(crate) struct Spill {
    /// Edges the fill buffer holds before it is written as a run.
    pub(crate) cap: usize,
    /// Per-run merge read-buffer bytes (budget's other half).
    merge_budget: u64,
    dir: PathBuf,
    runs: Vec<PathBuf>,
    stats: StreamStats,
}

impl Spill {
    /// The spill state for a construction-scratch budget of
    /// `budget_bytes` spilling under `dir`. Half the budget buys the
    /// fill buffer, half the merge readers; both are clamped to a usable
    /// floor.
    pub(crate) fn new(budget_bytes: u64, dir: &Path) -> Spill {
        let edge = std::mem::size_of::<Edge>() as u64;
        let half = budget_bytes / 2;
        Spill {
            cap: ((half / edge) as usize).max(MIN_RUN_EDGES),
            merge_budget: half.max((MIN_RUN_EDGES as u64) * edge),
            dir: dir.to_path_buf(),
            runs: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Sort+dedup `buf` and write it out as one run, leaving it empty.
    ///
    /// # Panics
    /// Panics if the run file cannot be written.
    pub(crate) fn write_run(&mut self, buf: &mut Vec<Edge>) {
        if buf.is_empty() {
            return;
        }
        self.stats.peak_bytes = self.stats.peak_bytes.max(edge_bytes(buf.len()));
        buf.sort_unstable();
        buf.dedup();
        let path = self.dir.join(format!(
            "stream-run-{}-{}.bin",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&self.dir)
            .and_then(|()| write_edges(&path, buf))
            .expect("spill graph builder run");
        self.stats.spill_runs += 1;
        self.runs.push(path);
        buf.clear();
    }

    /// The sorted, deduplicated edges of every run plus the unspilled
    /// `buf` (spilled as the last run), and the build's scratch
    /// accounting.
    ///
    /// # Panics
    /// Panics if a spill-run file cannot be written or read back (the
    /// scratch directory vanished mid-build).
    fn merge(mut self, mut buf: Vec<Edge>) -> (Vec<Edge>, StreamStats) {
        self.write_run(&mut buf);
        // Half the budget's capacity: free it before the merge output grows.
        drop(buf);
        let read_buf = ((self.merge_budget / self.runs.len() as u64) as usize).clamp(4096, 1 << 20);
        self.stats.peak_bytes = self
            .stats
            .peak_bytes
            .max((read_buf * self.runs.len()) as u64);
        let mut readers: Vec<RunReader> = self
            .runs
            .iter()
            .map(|p| RunReader::open(p, read_buf).expect("open graph builder run"))
            .collect();
        // K-way merge by always advancing the reader with the smallest
        // head; runs are few (merge fan-in = spill count), so a linear
        // min scan beats heap bookkeeping until far beyond realistic
        // budgets.
        let mut edges: Vec<Edge> = Vec::new();
        loop {
            let mut min: Option<(usize, Edge)> = None;
            for (i, r) in readers.iter().enumerate() {
                if let Some(e) = r.head {
                    if min.map(|(_, m)| e < m).unwrap_or(true) {
                        min = Some((i, e));
                    }
                }
            }
            let Some((i, e)) = min else { break };
            readers[i].advance().expect("read graph builder run");
            if edges.last() != Some(&e) {
                edges.push(e);
            }
        }
        (edges, self.stats)
    }
}

/// A builder's normalized edge list — sorted, deduplicated — and its
/// scratch accounting: the k-way merge of the spilled runs and `buf`
/// when a budgeted builder spilled, the in-memory sort of `buf`
/// otherwise.
pub(crate) fn finish(spill: Option<Spill>, mut buf: Vec<Edge>) -> (Vec<Edge>, StreamStats) {
    match spill {
        Some(spill) if !spill.runs.is_empty() => spill.merge(buf),
        _ => {
            let stats = StreamStats {
                peak_bytes: edge_bytes(buf.len()),
                spill_runs: 0,
            };
            buf.sort_unstable();
            buf.dedup();
            (buf, stats)
        }
    }
}

/// Write `edges` to a new run file at `path`, little-endian `(a, b)`
/// pairs.
fn write_edges(path: &Path, edges: &[Edge]) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for e in edges {
        w.write_all(&e.a.to_le_bytes())?;
        w.write_all(&e.b.to_le_bytes())?;
    }
    w.flush()
}

impl Drop for Spill {
    fn drop(&mut self) {
        for p in &self.runs {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// One sorted run being merged: a bounded buffered reader plus the
/// current head edge.
struct RunReader {
    r: BufReader<File>,
    head: Option<Edge>,
}

impl RunReader {
    fn open(path: &Path, buf_bytes: usize) -> std::io::Result<RunReader> {
        let mut rr = RunReader {
            r: BufReader::with_capacity(buf_bytes, File::open(path)?),
            head: None,
        };
        rr.advance()?;
        Ok(rr)
    }

    fn advance(&mut self) -> std::io::Result<()> {
        let mut bytes = [0u8; 8];
        self.head = match self.r.read_exact(&mut bytes) {
            Ok(()) => Some(Edge {
                a: NodeId::from_le_bytes(bytes[0..4].try_into().unwrap()),
                b: NodeId::from_le_bytes(bytes[4..8].try_into().unwrap()),
            }),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => None,
            Err(e) => return Err(e),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("topogen-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Deterministic edge soup with duplicates, reversals, and
    /// self-loops — everything a builder must normalize away.
    fn soup(n: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| ((next() % n as u64) as u32, (next() % n as u64) as u32))
            .collect()
    }

    #[test]
    fn budgeted_build_matches_in_memory_with_spills() {
        let dir = scratch("identity");
        let edges = soup(97, 5000, 42);
        let mut plain = GraphBuilder::new(97);
        // 64 KB budget: 5000 raw edges (40 KB) overflow the 32 KB fill
        // half and must spill.
        let mut budgeted = GraphBuilder::budgeted(64 * 1024, &dir);
        budgeted.ensure_nodes(97);
        for &(u, v) in &edges {
            plain.add_edge(u, v);
            budgeted.add_edge(u, v);
        }
        assert_eq!(budgeted.self_loops_dropped(), plain.self_loops_dropped());
        let expected = plain.build();
        let (got, stats) = budgeted.build_counted();
        assert!(stats.spill_runs >= 2, "budget too large to force spills");
        assert!(stats.peak_bytes > 0 && stats.peak_bytes <= 64 * 1024);
        assert_eq!(got, expected);
        // Runs are cleaned up after the merge.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandoned_builder_removes_runs() {
        let dir = scratch("abandon");
        let mut b = GraphBuilder::budgeted(16 * 1024, &dir);
        b.ensure_nodes(64);
        for (u, v) in soup(64, 5000, 3) {
            b.add_edge(u, v);
        }
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
        drop(b);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

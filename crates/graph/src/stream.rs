//! Memory-budgeted streaming CSR construction.
//!
//! Generators normally accumulate their full raw edge list in a
//! [`GraphBuilder`] before the sort/dedup/CSR pass — at the xl tier
//! (~1M nodes, millions of raw edges with duplicates) that transient
//! buffer dominates peak memory. [`StreamingBuilder`] bounds it:
//! edges stream through a fixed-capacity buffer that, when full, is
//! sorted, deduplicated, and spilled to a binary *run* file under a
//! scratch directory; [`StreamingBuilder::build`] k-way-merges the
//! sorted runs (deduplicating across runs on the fly) straight into
//! the CSR constructor.
//!
//! The budget bounds the builder's *construction scratch* — the edge
//! buffer while filling, and the merge read buffers while draining —
//! not the finished CSR (which is the output, sized by the graph).
//! Both builders implement [`EdgeSink`], and generators emit through
//! that trait from a single code path, so the streamed graph is
//! **identical** to the in-memory one by construction: same RNG
//! consumption, same normalization, and sort+dedup is order-independent.
//!
//! The crate stays dependency-free: the builder *returns* its
//! [`StreamStats`]; callers that hold an instrument report them (the
//! same convention as [`crate::bfs_bitset::BfsStats`]).

use crate::graph::{Edge, Graph, GraphBuilder, NodeId};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A consumer of generator-emitted edges. Implemented by the plain
/// in-memory [`GraphBuilder`] and the spilling [`StreamingBuilder`];
/// generator `*_into` functions are generic over it so both paths share
/// one body (and therefore one RNG consumption order).
pub trait EdgeSink {
    /// Grow the node set to at least `n` nodes.
    fn ensure_nodes(&mut self, n: usize);
    /// Add an undirected edge (self-loops dropped, duplicates collapsed
    /// at build time).
    fn add_edge(&mut self, u: NodeId, v: NodeId);
}

impl EdgeSink for GraphBuilder {
    fn ensure_nodes(&mut self, n: usize) {
        GraphBuilder::ensure_nodes(self, n);
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId) {
        GraphBuilder::add_edge(self, u, v);
    }
}

/// Construction-scratch accounting for one streamed build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Peak construction-scratch bytes: the larger of the fill-time edge
    /// buffer and the merge-time read buffers.
    pub peak_bytes: u64,
    /// Sorted runs spilled to disk (0 when the build fit in the buffer).
    pub spill_runs: u64,
    /// Edges written across all spilled runs (post per-run dedup).
    pub spilled_edges: u64,
}

/// Distinguishes concurrent builders' run files within one process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// A [`GraphBuilder`] work-alike whose transient edge buffer is bounded
/// by a byte budget, spilling sorted runs to `dir` and merging them at
/// [`build`](Self::build) time. See the module docs for the contract.
#[derive(Debug)]
pub struct StreamingBuilder {
    n: usize,
    buf: Vec<Edge>,
    /// Edges held in memory before a spill.
    cap: usize,
    /// Per-run merge read-buffer bytes (budget's other half).
    merge_budget: u64,
    dir: PathBuf,
    runs: Vec<PathBuf>,
    self_loops_dropped: usize,
    stats: StreamStats,
}

/// Smallest usable in-memory run (edges); below this, spill churn
/// would dominate and tiny budgets would thrash.
const MIN_RUN_EDGES: usize = 1024;

impl StreamingBuilder {
    /// A builder for `n` isolated nodes spilling under `dir` when the
    /// construction scratch would exceed `budget_bytes` (`None` =
    /// unbounded: never spills, equivalent to [`GraphBuilder`]).
    pub fn new(n: usize, budget_bytes: Option<u64>, dir: &Path) -> Self {
        let edge = std::mem::size_of::<Edge>() as u64;
        let (cap, merge_budget) = match budget_bytes {
            None => (usize::MAX, u64::MAX),
            Some(b) => {
                // Half the budget buys the fill buffer, half the merge
                // readers; both clamped to a usable floor.
                let half = b / 2;
                let cap = ((half / edge) as usize).max(MIN_RUN_EDGES);
                (cap, half.max((MIN_RUN_EDGES as u64) * edge))
            }
        };
        StreamingBuilder {
            n,
            buf: Vec::new(),
            cap,
            merge_budget,
            dir: dir.to_path_buf(),
            runs: Vec::new(),
            self_loops_dropped: 0,
            stats: StreamStats::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// How many self-loops were dropped.
    pub fn self_loops_dropped(&self) -> usize {
        self.self_loops_dropped
    }

    fn note_buf_bytes(&mut self) {
        let bytes = (self.buf.len() * std::mem::size_of::<Edge>()) as u64;
        self.stats.peak_bytes = self.stats.peak_bytes.max(bytes);
    }

    /// Sort+dedup the in-memory buffer and write it out as one run.
    fn spill(&mut self) -> std::io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.note_buf_bytes();
        self.buf.sort_unstable();
        self.buf.dedup();
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!(
            "stream-run-{}-{}.bin",
            std::process::id(),
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut w = BufWriter::new(File::create(&path)?);
        for e in &self.buf {
            w.write_all(&e.a.to_le_bytes())?;
            w.write_all(&e.b.to_le_bytes())?;
        }
        w.flush()?;
        self.stats.spill_runs += 1;
        self.stats.spilled_edges += self.buf.len() as u64;
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Finalize into an immutable [`Graph`] plus the scratch accounting.
    ///
    /// # Panics
    /// Panics if a spill-run file cannot be written or read back (the
    /// scratch directory vanished mid-build); runs are deleted on the
    /// way out in every other case.
    pub fn build(mut self) -> (Graph, StreamStats) {
        if self.runs.is_empty() {
            self.note_buf_bytes();
            let mut edges = std::mem::take(&mut self.buf);
            edges.sort_unstable();
            edges.dedup();
            let stats = self.stats;
            let n = self.n;
            return (Graph::from_normalized_edges(n, edges), stats);
        }
        self.spill().expect("spill final streaming run");
        let read_buf = ((self.merge_budget / self.runs.len() as u64) as usize).clamp(4096, 1 << 20);
        self.stats.peak_bytes = self
            .stats
            .peak_bytes
            .max((read_buf * self.runs.len()) as u64);
        let mut readers: Vec<RunReader> = self
            .runs
            .iter()
            .map(|p| RunReader::open(p, read_buf).expect("open streaming run"))
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
            readers[i].advance().expect("read streaming run");
            if edges.last() != Some(&e) {
                edges.push(e);
            }
        }
        drop(readers);
        for p in &self.runs {
            let _ = std::fs::remove_file(p);
        }
        self.runs.clear();
        let stats = self.stats;
        let n = self.n;
        (Graph::from_normalized_edges(n, edges), stats)
    }
}

impl EdgeSink for StreamingBuilder {
    fn ensure_nodes(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
        }
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for {} nodes",
            self.n
        );
        if u == v {
            self.self_loops_dropped += 1;
            return;
        }
        self.buf.push(Edge::new(u, v));
        if self.buf.len() >= self.cap {
            self.spill().expect("spill streaming run");
        }
    }
}

impl Drop for StreamingBuilder {
    fn drop(&mut self) {
        // Abandoned build (never reached `build()`): reclaim the runs.
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
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("topogen-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Deterministic edge soup with duplicates, reversals, and
    /// self-loops — everything the builders must normalize away.
    fn soup(n: u32, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| ((next() % n as u64) as NodeId, (next() % n as u64) as NodeId))
            .collect()
    }

    #[test]
    fn streamed_build_matches_in_memory_with_spills() {
        let dir = scratch("identity");
        let edges = soup(97, 5000, 42);
        let mut plain = GraphBuilder::new(97);
        // 64 KB budget: 5000 raw edges (40 KB) overflow the 32 KB fill
        // half and must spill.
        let mut streamed = StreamingBuilder::new(97, Some(64 * 1024), &dir);
        for &(u, v) in &edges {
            plain.add_edge(u, v);
            streamed.add_edge(u, v);
        }
        let expected = plain.build();
        let (got, stats) = streamed.build();
        assert!(stats.spill_runs >= 2, "budget too large to force spills");
        assert!(stats.peak_bytes > 0 && stats.peak_bytes <= 64 * 1024);
        assert_eq!(got.node_count(), expected.node_count());
        assert_eq!(got.edges(), expected.edges());
        for v in got.nodes() {
            assert_eq!(got.neighbors(v), expected.neighbors(v));
        }
        // Runs are cleaned up after the merge.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_never_spills() {
        let dir = scratch("unbounded");
        let mut b = StreamingBuilder::new(50, None, &dir);
        for (u, v) in soup(50, 2000, 7) {
            b.add_edge(u, v);
        }
        let (g, stats) = b.build();
        assert_eq!(stats.spill_runs, 0);
        assert_eq!(stats.spilled_edges, 0);
        let mut plain = GraphBuilder::new(50);
        for (u, v) in soup(50, 2000, 7) {
            plain.add_edge(u, v);
        }
        assert_eq!(g.edges(), plain.build().edges());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn self_loops_dropped_and_nodes_grow() {
        let dir = scratch("loops");
        let mut b = StreamingBuilder::new(2, Some(64 * 1024), &dir);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.ensure_nodes(4);
        b.add_edge(3, 1);
        assert_eq!(b.self_loops_dropped(), 1);
        let (g, _) = b.build();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abandoned_builder_removes_runs() {
        let dir = scratch("abandon");
        let mut b = StreamingBuilder::new(64, Some(16 * 1024), &dir);
        for (u, v) in soup(64, 5000, 3) {
            b.add_edge(u, v);
        }
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
        drop(b);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

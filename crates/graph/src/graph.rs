//! The core [`Graph`] type: an immutable, undirected, simple graph in
//! compressed-sparse-row form, plus the mutable [`GraphBuilder`] used to
//! construct it.

use crate::stream::{self, Spill, StreamStats};
use std::fmt;
use std::path::Path;

/// Node identifier. Node ids are dense: a graph with `n` nodes uses ids
/// `0..n`. `u32` keeps adjacency arrays compact even for router-level
/// graphs with hundreds of thousands of nodes.
pub type NodeId = u32;

/// An undirected edge, stored with `a <= b` once normalized.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Edge {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
}

impl Edge {
    /// Create a normalized edge with `a <= b`.
    ///
    /// # Panics
    /// Panics if `u == v` (self-loops are not representable).
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loops are not valid edges");
        if u < v {
            Edge { a: u, b: v }
        } else {
            Edge { a: v, b: u }
        }
    }

    /// The endpoint that is not `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this edge.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            assert_eq!(n, self.b, "node {n} is not an endpoint of {self:?}");
            self.a
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.a, self.b)
    }
}

/// Incrementally accumulates edges, then produces an immutable [`Graph`].
///
/// Self-loops are silently dropped and duplicate edges are collapsed,
/// mirroring the paper's treatment of the PLRG generator's "superfluous
/// links" (footnote 6). The builder tracks how many self-loops were
/// dropped so generators can report the raw vs. simple edge counts.
///
/// [`new`](Self::new) holds the raw edge list in memory;
/// [`budgeted`](Self::budgeted) bounds it, spilling sorted runs to disk
/// (see [`crate::stream`]). Both build the same graph from the same
/// edges.
#[derive(Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    self_loops_dropped: usize,
    /// The spilled runs of a [`budgeted`](Self::budgeted) builder.
    spill: Option<Spill>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            self_loops_dropped: 0,
            spill: None,
        }
    }

    /// A builder with no nodes whose construction scratch stays within
    /// `budget_bytes`: half of it buys the edge buffer, which is sorted,
    /// deduplicated and written as a run file under `dir` whenever it
    /// fills, and [`build`](Self::build) k-way merges the runs (the
    /// other half buys the merge's read buffers). Run files are removed
    /// after the merge, or when the builder is dropped unbuilt.
    ///
    /// # Panics
    /// [`add_edge`](Self::add_edge) and [`build`](Self::build) panic if
    /// a run file cannot be written or read back.
    pub fn budgeted(budget_bytes: u64, dir: &Path) -> Self {
        GraphBuilder {
            spill: Some(Spill::new(budget_bytes, dir)),
            ..GraphBuilder::new(0)
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Grow the node set to at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
        }
    }

    /// Append a fresh node and return its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.n as NodeId;
        self.n += 1;
        id
    }

    /// Add an undirected edge. Self-loops are counted and dropped;
    /// duplicates are collapsed at [`build`](Self::build) time.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for {} nodes",
            self.n
        );
        if u == v {
            self.self_loops_dropped += 1;
            return;
        }
        self.edges.push(Edge::new(u, v));
        if let Some(spill) = &mut self.spill {
            if self.edges.len() >= spill.cap {
                spill.write_run(&mut self.edges);
            }
        }
    }

    /// How many self-loops were dropped.
    pub fn self_loops_dropped(&self) -> usize {
        self.self_loops_dropped
    }

    /// Finalize into an immutable [`Graph`], sorting adjacency lists and
    /// collapsing duplicate edges.
    pub fn build(self) -> Graph {
        self.build_counted().0
    }

    /// [`build`](Self::build), plus the construction-scratch accounting:
    /// the peak bytes of the edge buffer and merge read buffers, and the
    /// runs a budgeted builder spilled.
    pub fn build_counted(self) -> (Graph, StreamStats) {
        let (edges, stats) = stream::finish(self.spill, self.edges);
        (Graph::from_normalized_edges(self.n, edges), stats)
    }
}

/// An immutable undirected simple graph in CSR (compressed sparse row)
/// form. Adjacency lists are sorted, enabling `O(log d)` adjacency tests.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// offsets[v]..offsets[v+1] indexes `targets` with v's neighbors.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<NodeId>,
    /// Normalized unique edges, sorted.
    edges: Vec<Edge>,
}

impl Graph {
    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Graph {
        Graph {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Build from an arbitrary edge iterator (self-loops dropped,
    /// duplicates collapsed).
    pub fn from_edges<I>(n: usize, edges: I) -> Graph
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Internal: build from already-normalized, sorted, deduped edges.
    pub(crate) fn from_normalized_edges(n: usize, edges: Vec<Edge>) -> Graph {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges not sorted+deduped"
        );
        let mut deg = vec![0usize; n];
        for e in &edges {
            deg[e.a as usize] += 1;
            deg[e.b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; acc];
        for e in &edges {
            targets[cursor[e.a as usize]] = e.b;
            cursor[e.a as usize] += 1;
            targets[cursor[e.b as usize]] = e.a;
            cursor[e.b as usize] += 1;
        }
        // Each list must be sorted for binary-search adjacency tests.
        for v in 0..n {
            targets[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph {
            offsets,
            targets,
            edges,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (unique, undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Average node degree `2m / n`; 0 for the empty node set.
    pub fn average_degree(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / n as f64
        }
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted slice of `v`'s neighbors.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether `(u, v)` is an edge (`O(log deg(u))`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Search the smaller adjacency list.
        let (s, t) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(s).binary_search(&t).is_ok()
    }

    /// All unique edges in normalized sorted order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Degree sequence (unsorted, indexed by node).
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.node_count() as NodeId)
            .map(|v| self.degree(v))
            .collect()
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.node_count() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Index of an edge in [`edges`](Self::edges), if present. Useful for
    /// dense per-edge arrays (e.g. link values).
    pub fn edge_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if u == v {
            return None;
        }
        self.edges.binary_search(&Edge::new(u, v)).ok()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.average_degree(), 0.0);
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.average_degree(), 2.0);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate in reverse order
        b.add_edge(0, 1); // exact duplicate
        b.add_edge(2, 2); // self loop
        assert_eq!(b.self_loops_dropped(), 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn builder_add_node() {
        let mut b = GraphBuilder::new(0);
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn ensure_nodes_grows_only() {
        let mut b = GraphBuilder::new(5);
        b.ensure_nodes(3);
        assert_eq!(b.node_count(), 5);
        b.ensure_nodes(8);
        assert_eq!(b.node_count(), 8);
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn edge_normalization() {
        let e = Edge::new(5, 2);
        assert_eq!(e.a, 2);
        assert_eq!(e.b, 5);
        assert_eq!(e.other(2), 5);
        assert_eq!(e.other(5), 2);
    }

    #[test]
    #[should_panic]
    fn edge_self_loop_panics() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn edge_index_lookup() {
        let g = triangle();
        assert!(g.edge_index(0, 1).is_some());
        assert!(g.edge_index(1, 0).is_some());
        assert_eq!(g.edge_index(0, 1), g.edge_index(1, 0));
        assert_eq!(g.edge_index(0, 0), None);
        let idx: Vec<_> = g
            .edges()
            .iter()
            .map(|e| g.edge_index(e.a, e.b).unwrap())
            .collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn neighbors_sorted() {
        let g = Graph::from_edges(5, vec![(0, 4), (0, 2), (0, 1), (0, 3)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn star_degrees() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        assert_eq!(g.degree(0), 4);
        for v in 1..5 {
            assert_eq!(g.degree(v), 1);
        }
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.average_degree(), 8.0 / 5.0);
    }
}

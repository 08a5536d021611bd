//! Batched bitset BFS kernels for large sampled-center runs.
//!
//! The paper's ball-growing methodology samples centers on large graphs
//! (§3.2.1: "a sufficiently large number of randomly chosen nodes"), and
//! at router-level scale (~170k nodes) the per-center adjacency-list BFS
//! in [`crate::bfs`] becomes the hot path. This module provides two
//! denser kernels over the same CSR adjacency:
//!
//! * A **single-source** bounded BFS ([`BitsetScratch::run_bounded`])
//!   whose visited set is a `u64`-word bitset and which switches between
//!   classic top-down frontier expansion and Beamer-style bottom-up
//!   pulls (scan unvisited nodes, probe their neighbors against a
//!   frontier bitset) when the frontier grows past `2m/α` edges — the
//!   dense small-diameter regime where top-down rescans most of the
//!   edge set per level. Besides a hop bound it takes a reached-node
//!   limit: the run stops after the first level whose reached set
//!   exceeds it, which is all a size-capped ball center needs.
//! * A **multi-source** kernel ([`multi_source_ring_counts`]) advancing
//!   up to 64 sources per pass: each node carries a `u64` lane mask (bit
//!   `k` = "source `k` has reached this node"). It is direction-
//!   optimizing too (Beamer et al., SC 2012). A **push** level ORs whole
//!   lane words across the frontier's edges (`next[u] |= front[v]`,
//!   `new = next & !visited`), so 64 traversals cost one sweep. Once the
//!   frontier's adjacency exceeds `1/LANE_ALPHA` (half) of the adjacency
//!   of the *open* nodes — those some lane has not reached yet — the
//!   level runs as a **pull** instead: it walks the open list in node
//!   order, ORs the frontier words of each node's neighbors until every
//!   lane the node lacks is covered, and writes the node's new lanes
//!   once. A push level does a scattered read-modify-write per edge and
//!   then a second scattered pass over the touched nodes; a pull level
//!   writes each node once, in order, and nodes every lane has reached
//!   leave the open list for good. On small-world graphs the union of
//!   64 frontiers holds nearly every node for several levels, and there
//!   a pull level wins even when no node completes its lanes early.
//!   Either way a level's per-lane ring counts accumulate in a
//!   bit-sliced counter, a few word operations per node rather than one
//!   increment per lane.
//!
//! Both kernels produce exactly the distances of the scalar oracle
//! (hop-count BFS levels are unique), so every downstream aggregate —
//! ring sizes, ball memberships sorted by `(distance, id)`, and the
//! L/H-signature curves — is bit-identical to the scalar path. Only
//! visitation *order* within a level is unspecified.
//!
//! [`KernelPolicy`] + [`select_kernel`] hold the engine-facing heuristic
//! for choosing between the scalar and bitset paths, so the batch CLI
//! and the serve daemon share one instrumented decision point.

use crate::subgraph::{induced_subgraph_by, SubgraphMap};
use crate::{Graph, NodeId, UNREACHED};

/// Which BFS kernel the metrics engine should use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Decide per plan from graph size, density, and centers requested
    /// (see [`select_kernel`]).
    #[default]
    Auto,
    /// Always the per-center scalar BFS (the PR-1 engine path).
    Scalar,
    /// Always the batched bitset kernels.
    Bitset,
}

impl KernelPolicy {
    /// The trace/report tag for this policy.
    pub fn tag(self) -> &'static str {
        match self {
            KernelPolicy::Auto => "auto",
            KernelPolicy::Scalar => "scalar",
            KernelPolicy::Bitset => "bitset",
        }
    }
}

/// The kernel actually selected for one plan run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelChoice {
    /// Per-center scalar BFS.
    Scalar,
    /// Batched bitset kernels.
    Bitset,
}

impl KernelChoice {
    /// The trace/report tag for this choice.
    pub fn tag(self) -> &'static str {
        match self {
            KernelChoice::Scalar => "scalar",
            KernelChoice::Bitset => "bitset",
        }
    }
}

/// `Auto` switches to the bitset kernels at this node count.
pub const AUTO_MIN_NODES: usize = 8192;
/// …or at this node count when the graph is dense (avg degree ≥ 32),
/// where per-level edge rescans make the direction switch pay earlier.
pub const AUTO_MIN_NODES_DENSE: usize = 2048;

/// Pick the kernel for a plan over a graph with `n` nodes and `m`
/// (undirected) edges, serving `centers` total sampled centers.
///
/// The `Auto` heuristic is deliberately coarse and fully deterministic:
/// the bitset path pays off once bitmap sweeps amortize over enough
/// nodes (`n ≥ 8192`, or `n ≥ 2048` on dense graphs where `m/n ≥ 16`)
/// and at least two centers share the batched setup. Everything at the
/// calibration scales (`Scale::Small`, ≤ ~1.5k nodes) therefore keeps
/// the scalar path — and its archived byte-identical outputs — while
/// paper-RL-sized runs (~170k) get the kernels.
pub fn select_kernel(policy: KernelPolicy, n: usize, m: usize, centers: usize) -> KernelChoice {
    match policy {
        KernelPolicy::Scalar => KernelChoice::Scalar,
        KernelPolicy::Bitset => KernelChoice::Bitset,
        KernelPolicy::Auto => {
            let min_n = if m >= n.saturating_mul(16) {
                AUTO_MIN_NODES_DENSE
            } else {
                AUTO_MIN_NODES
            };
            if n >= min_n && centers >= 2 {
                KernelChoice::Bitset
            } else {
                KernelChoice::Scalar
            }
        }
    }
}

/// Deterministic work counters for the bitset kernels: `u64` words
/// touched by bitmap sweeps/probes and frontier passes executed. Counts
/// depend only on the graph and the sources, never on thread count or
/// timing, so they can feed the ratcheting perf gate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BfsStats {
    /// Bitset and lane words read or written, in both directions.
    pub words_scanned: u64,
    /// Level-synchronous frontier passes executed.
    pub frontier_passes: u64,
    /// The multi-source levels among `frontier_passes` that ran
    /// bottom-up (pull). Proves the pull path ran; the perf gate does
    /// not read it.
    pub pull_passes: u64,
}

impl BfsStats {
    /// Sum another kernel invocation's counters into this one.
    pub fn merge(&mut self, other: &BfsStats) {
        self.words_scanned += other.words_scanned;
        self.frontier_passes += other.frontier_passes;
        self.pull_passes += other.pull_passes;
    }
}

/// Frontier edges must exceed `2m/ALPHA` before a level runs bottom-up
/// (Beamer's α; the conventional value for direction-optimizing BFS).
const ALPHA: u64 = 14;

/// A multi-source level runs bottom-up when its frontier's adjacency
/// exceeds `1/LANE_ALPHA` of the open nodes' adjacency — "more than
/// half". Chosen by measured time on the sampled large-tier graphs, not
/// by the word counter: a pull level may read more words than the push
/// level it replaces and still run faster, because it writes each node
/// once, in order.
const LANE_ALPHA: u64 = 2;

/// Reusable single-source bitset BFS state: one visited bitmap, one
/// frontier bitmap (materialized only for bottom-up levels), a distance
/// field valid where the visited bit is set, and the touched-node list.
/// Each level's frontier is the `touched[lo..hi]` slice the previous
/// level appended, so no separate frontier lists are kept.
///
/// Like [`crate::bfs::DistScratch`] this is reused across centers, so
/// steady-state cost is O(ball + n/64) per BFS with zero allocation.
#[derive(Debug, Default)]
pub struct BitsetScratch {
    /// Visited bitmap; `dist[v]` is valid iff bit `v` is set.
    visited: Vec<u64>,
    /// Frontier bitmap, nonzero only inside a bottom-up level.
    front_bits: Vec<u64>,
    dist: Vec<u32>,
    touched: Vec<NodeId>,
}

impl BitsetScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch sized for graphs of up to `n` nodes, allocated up front
    /// so that runs on other threads never grow it.
    pub fn with_nodes(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitsetScratch {
            visited: vec![0; words],
            front_bits: vec![0; words],
            dist: vec![0; n],
            touched: Vec::with_capacity(n),
        }
    }

    /// Run a bounded direction-optimizing BFS from `src`, replacing any
    /// previous contents. Nodes farther than `max_h` hops are left
    /// unvisited, and a level starts only while at most `max_nodes`
    /// nodes are reached: the run stops after the first level whose
    /// reached set exceeds `max_nodes`, and levels past it read as
    /// empty. Pass `usize::MAX` for the whole distance field. Work
    /// counters accumulate into `stats`.
    pub fn run_bounded(
        &mut self,
        g: &Graph,
        src: NodeId,
        max_h: u32,
        max_nodes: usize,
        stats: &mut BfsStats,
    ) {
        let n = g.node_count();
        let words = n.div_ceil(64);
        if self.visited.len() < words {
            self.visited.resize(words, 0);
            self.front_bits.resize(words, 0);
        }
        self.visited[..words].fill(0);
        if self.dist.len() < n {
            self.dist.resize(n, 0);
        }
        self.touched.clear();

        self.visited[src as usize / 64] |= 1u64 << (src % 64);
        self.dist[src as usize] = 0;
        self.touched.push(src);
        stats.words_scanned += 1;

        let m2 = 2 * g.edge_count() as u64; // directed edge endpoints

        // The frontier is `touched[lo..hi]`; each level appends the next.
        let (mut lo, mut hi) = (0, 1);
        let mut level = 1u32;
        while lo < hi && level <= max_h && hi <= max_nodes {
            let frontier_edges: u64 = self.touched[lo..hi]
                .iter()
                .map(|&u| g.neighbors(u).len() as u64)
                .sum();
            if frontier_edges * ALPHA > m2 {
                // Bottom-up: scan unvisited nodes, probe their
                // neighbors against the frontier bitmap, stop at the
                // first hit.
                for &u in &self.touched[lo..hi] {
                    self.front_bits[u as usize / 64] |= 1u64 << (u % 64);
                }
                let mut probes = 0u64;
                for w in 0..words {
                    let mut unvis = !self.visited[w];
                    if w == words - 1 && !n.is_multiple_of(64) {
                        unvis &= (1u64 << (n % 64)) - 1;
                    }
                    while unvis != 0 {
                        let b = unvis.trailing_zeros();
                        unvis &= unvis - 1;
                        let v = (w * 64 + b as usize) as NodeId;
                        for &nb in g.neighbors(v) {
                            probes += 1;
                            if self.front_bits[nb as usize / 64] & (1u64 << (nb % 64)) != 0 {
                                self.visited[w] |= 1u64 << b;
                                self.dist[v as usize] = level;
                                self.touched.push(v);
                                break;
                            }
                        }
                    }
                }
                for &u in &self.touched[lo..hi] {
                    self.front_bits[u as usize / 64] = 0;
                }
                stats.words_scanned += words as u64 + probes + 2 * (hi - lo) as u64;
            } else {
                // Top-down: expand the frontier list, one visited-word
                // probe per edge.
                for i in lo..hi {
                    let u = self.touched[i];
                    for &v in g.neighbors(u) {
                        let w = v as usize / 64;
                        let bit = 1u64 << (v % 64);
                        if self.visited[w] & bit == 0 {
                            self.visited[w] |= bit;
                            self.dist[v as usize] = level;
                            self.touched.push(v);
                        }
                    }
                }
                stats.words_scanned += frontier_edges;
            }
            stats.frontier_passes += 1;
            (lo, hi) = (hi, self.touched.len());
            level += 1;
        }
    }

    /// Distance of `v` in the most recent run (`UNREACHED` if unvisited).
    pub fn dist(&self, v: NodeId) -> u32 {
        let w = v as usize / 64;
        if self
            .visited
            .get(w)
            .is_some_and(|word| word & (1u64 << (v % 64)) != 0)
        {
            self.dist[v as usize]
        } else {
            UNREACHED
        }
    }

    /// Nodes reached by the most recent run, in visitation order
    /// (non-decreasing distance; order within a level is unspecified).
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Sort the first `len` reached nodes in place by `(distance, id)`.
    /// Reached nodes are stored in non-decreasing distance order, so
    /// when `len` is a cumulative ring size (the prefix sum of
    /// [`ring_sizes`](Self::ring_sizes) up to radius `h`) the prefix is
    /// then the ball of radius `h` in the order of
    /// [`crate::bfs::ball_nodes`], and so is every shorter such prefix.
    ///
    /// # Panics
    /// Panics if `len` exceeds the number of reached nodes.
    pub fn sort_prefix(&mut self, len: usize) {
        let dist = &self.dist;
        // Ids are distinct, so the unstable sort is deterministic.
        self.touched[..len].sort_unstable_by_key(|&v| (dist[v as usize], v));
    }

    /// Nodes reached by the most recent run, sorted by `(distance, id)`
    /// — the deterministic ball order of [`crate::bfs::ball_nodes`].
    pub fn ball_nodes_sorted(&mut self) -> Vec<NodeId> {
        self.sort_prefix(self.touched.len());
        self.touched.clone()
    }

    /// The ball of radius `h` of the most recent run — the subgraph and
    /// node order [`crate::subgraph::ball`] builds. `cum` holds the
    /// cumulative ring sizes, and the prefix up to `cum[h]` must have
    /// been sorted with [`sort_prefix`](Self::sort_prefix). A neighbor's
    /// ball index is found by binary search within its distance level,
    /// so no `n`-sized inverse map is allocated per ball.
    pub fn ball(&self, g: &Graph, cum: &[usize], h: usize) -> (Graph, SubgraphMap) {
        induced_subgraph_by(g, &self.touched[..cum[h]], |w| {
            let d = self.dist(w) as usize; // `UNREACHED` is past every h
            if d > h {
                return None;
            }
            let start = if d == 0 { 0 } else { cum[d - 1] };
            let level = &self.touched[start..cum[d]];
            level.binary_search(&w).ok().map(|k| (start + k) as u32)
        })
    }

    /// Counts of nodes at *exactly* each hop distance `0..=max_h` for
    /// the most recent run (which must have been bounded by `max_h`).
    /// After a run cut short by its node limit, rings past the last
    /// level it ran are zero.
    pub fn ring_sizes(&self, max_h: u32) -> Vec<usize> {
        let mut rings = vec![0usize; max_h as usize + 1];
        for &v in &self.touched {
            rings[self.dist[v as usize] as usize] += 1;
        }
        rings
    }
}

/// Bounded single-source distances via the bitset kernel, as a full
/// distance field (`UNREACHED` where unvisited) — the drop-in
/// equivalent of [`crate::bfs::distances_bounded`] for differential
/// tests and one-off callers.
pub fn distances_bounded(g: &Graph, src: NodeId, max_h: u32, stats: &mut BfsStats) -> Vec<u32> {
    let mut s = BitsetScratch::new();
    s.run_bounded(g, src, max_h, usize::MAX, stats);
    let mut out = vec![UNREACHED; g.node_count()];
    for &v in s.touched() {
        out[v as usize] = s.dist[v as usize];
    }
    out
}

/// Maximum sources per multi-source pass (one bit-lane each).
pub const MAX_LANES: usize = 64;

/// Ring sizes (node counts at *exactly* each hop distance `0..=max_h`)
/// for up to [`MAX_LANES`] sources in one batched traversal.
///
/// Returns one `max_h + 1`-length counts vector per source, in source
/// order — exactly what [`crate::bfs::ring_sizes`] returns per source,
/// at one lane-parallel frontier sweep per level instead of one BFS per
/// source. Prefix-summing a row yields the expansion metric's
/// cumulative reachable-set sizes. One-off form of
/// [`LaneScratch::ring_counts`].
///
/// # Panics
/// Panics if `sources.len() > 64`.
pub fn multi_source_ring_counts(
    g: &Graph,
    sources: &[NodeId],
    max_h: u32,
    stats: &mut BfsStats,
) -> Vec<Vec<usize>> {
    LaneScratch::new().ring_counts(g, sources, max_h, stats)
}

/// Reusable multi-source lane state: per-node visited/frontier/next
/// lane masks (bit `k` of `visited[v]` = source `k` has reached `v`),
/// the frontier node lists, and the open list pull levels walk (nodes
/// some lane has not reached). Between passes `front` and `next` are
/// all zero and the lists empty; each pass clears `visited` itself, so
/// one scratch serves any number of passes over graphs of any size.
#[derive(Debug, Default)]
pub struct LaneScratch {
    visited: Vec<u64>,
    front: Vec<u64>,
    next: Vec<u64>,
    front_nodes: Vec<NodeId>,
    next_nodes: Vec<NodeId>,
    open: Vec<NodeId>,
}

impl LaneScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch sized for graphs of up to `n` nodes, allocated up front
    /// so that passes on other threads never grow it.
    pub fn with_nodes(n: usize) -> Self {
        LaneScratch {
            visited: vec![0; n],
            front: vec![0; n],
            next: vec![0; n],
            front_nodes: Vec::with_capacity(n),
            next_nodes: Vec::with_capacity(n),
            open: Vec::with_capacity(n),
        }
    }

    /// One lane-parallel pass: the ring counts of
    /// [`multi_source_ring_counts`], reusing this scratch's buffers.
    /// Each level runs top-down (push) or bottom-up (pull) as the
    /// module doc describes; hop levels are unique, so the direction
    /// never changes a count.
    ///
    /// # Panics
    /// Panics if `sources.len() > 64`.
    pub fn ring_counts(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        max_h: u32,
        stats: &mut BfsStats,
    ) -> Vec<Vec<usize>> {
        assert!(
            sources.len() <= MAX_LANES,
            "at most {MAX_LANES} sources per pass, got {}",
            sources.len()
        );
        let n = g.node_count();
        let lanes = sources.len();
        let mut rings = vec![vec![0usize; max_h as usize + 1]; lanes];
        if lanes == 0 {
            return rings;
        }
        if self.visited.len() < n {
            self.visited.resize(n, 0);
            self.front.resize(n, 0);
            self.next.resize(n, 0);
        }
        let Self {
            visited,
            front,
            next,
            front_nodes,
            next_nodes,
            open,
        } = self;
        visited[..n].fill(0);
        let full = u64::MAX >> (MAX_LANES - lanes);
        let degree = |v: NodeId| g.degree(v) as u64;

        for (k, &s) in sources.iter().enumerate() {
            if front[s as usize] == 0 {
                front_nodes.push(s);
            }
            visited[s as usize] |= 1u64 << k;
            front[s as usize] |= 1u64 << k;
            rings[k][0] += 1;
        }
        stats.words_scanned += lanes as u64;
        // Adjacency of the frontier, and of the open nodes (those some
        // lane has not reached); the open list itself is built by the
        // first pull level.
        let mut front_edges: u64 = front_nodes.iter().map(|&s| degree(s)).sum();
        let mut open_edges: u64 = 2 * g.edge_count() as u64
            - front_nodes
                .iter()
                .filter(|&&s| visited[s as usize] == full)
                .map(|&s| degree(s))
                .sum::<u64>();
        let mut open_built = false;
        let mut counter = LaneCounter::new();

        let mut level = 1u32;
        while !front_nodes.is_empty() && level <= max_h {
            next_nodes.clear();
            let mut next_edges = 0u64;
            if front_edges * LANE_ALPHA > open_edges {
                // Pull: each open node ORs its neighbors' frontier
                // words until it holds every lane it lacks, then writes
                // its new lanes once, into `next`.
                if !open_built {
                    open.clear();
                    open.extend((0..n as NodeId).filter(|&u| visited[u as usize] != full));
                    open_built = true;
                }
                let scanned = open.len();
                let mut probes = 0u64;
                let mut kept = 0;
                for i in 0..scanned {
                    let u = open[i];
                    let need = full & !visited[u as usize];
                    if need == 0 {
                        continue; // completed by a push level
                    }
                    let mut got = 0u64;
                    for &w in g.neighbors(u) {
                        probes += 1;
                        got |= front[w as usize];
                        if got & need == need {
                            break;
                        }
                    }
                    let new = got & need;
                    if new != 0 {
                        visited[u as usize] |= new;
                        next[u as usize] = new;
                        next_nodes.push(u);
                        next_edges += degree(u);
                        counter.add(new);
                    }
                    if new == need {
                        open_edges -= degree(u);
                    } else {
                        open[kept] = u;
                        kept += 1;
                    }
                }
                open.truncate(kept);
                for &v in front_nodes.iter() {
                    front[v as usize] = 0;
                }
                // The new frontier is in `next`/`next_nodes`: swap it
                // into place, leaving the zeroed old frontier as `next`.
                std::mem::swap(front, next);
                std::mem::swap(front_nodes, next_nodes);
                stats.words_scanned += scanned as u64 + probes + 2 * front_nodes.len() as u64;
                stats.pull_passes += 1;
            } else {
                // Push: OR each frontier node's lanes into its
                // neighbors, then keep the lanes they had not seen.
                let mut edge_words = 0u64;
                for &v in front_nodes.iter() {
                    let f = front[v as usize];
                    for &u in g.neighbors(v) {
                        if next[u as usize] == 0 {
                            next_nodes.push(u);
                        }
                        next[u as usize] |= f;
                    }
                    edge_words += degree(v);
                }
                for &v in front_nodes.iter() {
                    front[v as usize] = 0;
                }
                front_nodes.clear();
                for &u in next_nodes.iter() {
                    let new = next[u as usize] & !visited[u as usize];
                    next[u as usize] = 0;
                    if new != 0 {
                        visited[u as usize] |= new;
                        front[u as usize] = new;
                        front_nodes.push(u);
                        next_edges += degree(u);
                        counter.add(new);
                        if visited[u as usize] == full {
                            open_edges -= degree(u);
                        }
                    }
                }
                // `front_nodes` was cleared above and now holds the new
                // frontier; `next_nodes` is free scratch for the next level.
                stats.words_scanned += edge_words + 3 * next_nodes.len() as u64;
            }
            counter.drain_into(&mut rings, level);
            stats.frontier_passes += 1;
            front_edges = next_edges;
            level += 1;
        }
        // A radius-bounded pass can stop with a live frontier: zero it so
        // the next pass starts from clean lanes.
        for &v in front_nodes.iter() {
            front[v as usize] = 0;
        }
        front_nodes.clear();
        next_nodes.clear();
        rings
    }
}

/// One level's per-lane node counts as a bit-sliced binary counter:
/// bit `k` of `planes[i]` is bit `i` of lane `k`'s count. Adding a
/// node's new-lane mask is a ripple-carry add over whole words, so a
/// node that gains many lanes at once costs a few word operations, not
/// one increment per lane.
struct LaneCounter {
    planes: [u64; 64],
}

impl LaneCounter {
    fn new() -> Self {
        LaneCounter { planes: [0; 64] }
    }

    /// Count one node for every lane set in `mask`.
    fn add(&mut self, mask: u64) {
        let mut carry = mask;
        for plane in &mut self.planes {
            if carry == 0 {
                break;
            }
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
    }

    /// Add each lane's count to its ring at `level` and reset to zero.
    fn drain_into(&mut self, rings: &mut [Vec<usize>], level: u32) {
        for (i, plane) in self.planes.iter_mut().enumerate() {
            let mut bits = std::mem::take(plane);
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                rings[k][level as usize] += 1 << i;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs, subgraph};

    fn path5() -> Graph {
        Graph::from_edges(5, (0..4).map(|i| (i, i + 1)))
    }

    /// A small graph mixing a dense clique (to trip bottom-up) with a
    /// pendant path and an isolated node.
    fn mixed() -> Graph {
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                edges.push((a, b));
            }
        }
        edges.extend([(7, 8), (8, 9), (9, 10)]);
        Graph::from_edges(12, edges)
    }

    #[test]
    fn single_source_matches_scalar_oracle() {
        for g in [path5(), mixed()] {
            let mut stats = BfsStats::default();
            for src in 0..g.node_count() as NodeId {
                for max_h in [0, 1, 2, 3, u32::MAX] {
                    let got = distances_bounded(&g, src, max_h, &mut stats);
                    let want = bfs::distances_bounded(&g, src, max_h);
                    assert_eq!(got, want, "src {src} max_h {max_h}");
                }
            }
            assert!(stats.words_scanned > 0);
            assert!(stats.frontier_passes > 0);
        }
    }

    #[test]
    fn scratch_reuse_and_ball_order_match_oracle() {
        let g = mixed();
        let mut s = BitsetScratch::new();
        let mut stats = BfsStats::default();
        for src in [0u32, 7, 8, 11] {
            for max_h in [1, 2, u32::MAX] {
                s.run_bounded(&g, src, max_h, usize::MAX, &mut stats);
                if max_h != u32::MAX {
                    assert_eq!(s.ring_sizes(max_h), bfs::ring_sizes(&g, src, max_h));
                    // Sorting the radius-1 prefix serves every ball up
                    // to radius 1.
                    let cum: Vec<usize> = s
                        .ring_sizes(max_h)
                        .iter()
                        .scan(0, |acc, &r| {
                            *acc += r;
                            Some(*acc)
                        })
                        .collect();
                    s.sort_prefix(cum[1]);
                    for h in 0..=1 {
                        let (ball, map) = s.ball(&g, &cum, h);
                        let (want, want_map) = subgraph::ball(&g, src, h as u32);
                        assert_eq!(map.originals(), want_map.originals(), "src {src} h {h}");
                        assert_eq!(ball, want, "src {src} h {h}");
                    }
                }
                assert_eq!(s.ball_nodes_sorted(), bfs::ball_nodes(&g, src, max_h));
            }
        }
    }

    #[test]
    fn node_limit_stops_after_the_first_level_over_it() {
        for g in [path5(), mixed(), small_world(120)] {
            let n = g.node_count();
            let mut s = BitsetScratch::new();
            let mut stats = BfsStats::default();
            for src in [0, n as NodeId / 2, n as NodeId - 1] {
                let want = bfs::distances(&g, src);
                for limit in (0..=n).chain([usize::MAX]) {
                    s.run_bounded(&g, src, u32::MAX, limit, &mut stats);
                    // The oracle's stop level: the first whose reached
                    // set exceeds the limit, else the last level.
                    let mut stop = 0;
                    while (stop as usize) < n {
                        let reached = want.iter().filter(|&&d| d <= stop).count();
                        let grows = want.iter().any(|&d| d == stop + 1);
                        if reached > limit || !grows {
                            break;
                        }
                        stop += 1;
                    }
                    for v in g.nodes() {
                        let d = want[v as usize];
                        let expect = if d <= stop { d } else { UNREACHED };
                        assert_eq!(s.dist(v), expect, "src {src} limit {limit} v {v}");
                    }
                }
            }
        }
    }

    /// A ring lattice (each node tied to its two nearest neighbors on
    /// either side) plus one long chord per node: small-world enough
    /// that the union of many frontiers covers most nodes for a few
    /// levels.
    fn small_world(n: u32) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push((i, (i + 2) % n));
            edges.push((i, (i * 37 + 11) % n));
        }
        Graph::from_edges(n as usize, edges.into_iter().filter(|(a, b)| a != b))
    }

    #[test]
    fn lane_passes_pull_dense_levels_and_match_scalar() {
        let g = small_world(240);
        let mut lanes = LaneScratch::new();
        for count in [1usize, 7, 64] {
            let sources: Vec<NodeId> = (0..count).map(|k| (k * 53 % 240) as NodeId).collect();
            for max_h in [2, 4, 64] {
                let mut stats = BfsStats::default();
                let rings = lanes.ring_counts(&g, &sources, max_h, &mut stats);
                for (k, &s) in sources.iter().enumerate() {
                    assert_eq!(rings[k], bfs::ring_sizes(&g, s, max_h), "lane {k}");
                }
                if count == 64 && max_h == 64 {
                    assert!(stats.pull_passes > 0, "no level ran bottom-up");
                    assert!(stats.pull_passes < stats.frontier_passes, "no push level");
                }
            }
        }
    }

    #[test]
    fn multi_source_rings_match_per_source_scalar() {
        let g = mixed();
        let sources: Vec<NodeId> = vec![0, 5, 8, 11, 0]; // duplicate lane is fine
        let mut stats = BfsStats::default();
        let rings = multi_source_ring_counts(&g, &sources, 4, &mut stats);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(rings[k], bfs::ring_sizes(&g, s, 4), "lane {k} source {s}");
        }
        assert!(stats.frontier_passes > 0);
    }

    #[test]
    fn multi_source_full_64_lanes() {
        let g = mixed();
        let sources: Vec<NodeId> = (0..64).map(|i| (i % g.node_count()) as NodeId).collect();
        let mut stats = BfsStats::default();
        let rings = multi_source_ring_counts(&g, &sources, 3, &mut stats);
        for (k, &s) in sources.iter().enumerate() {
            assert_eq!(rings[k], bfs::ring_sizes(&g, s, 3), "lane {k}");
        }
    }

    #[test]
    fn lane_scratch_reuse_across_graphs_and_passes() {
        // One scratch, graphs of both sizes in both orders, radius-bounded
        // passes that stop with a live frontier: no lane state may leak
        // into the next pass.
        let (small, large) = (path5(), mixed());
        let mut lanes = LaneScratch::new();
        let mut stats = BfsStats::default();
        for (g, max_h) in [
            (&small, 1),
            (&large, 2),
            (&small, 4),
            (&large, 1),
            (&large, 5),
        ] {
            let sources: Vec<NodeId> = (0..g.node_count() as NodeId).rev().collect();
            let rings = lanes.ring_counts(g, &sources, max_h, &mut stats);
            for (k, &s) in sources.iter().enumerate() {
                assert_eq!(
                    rings[k],
                    bfs::ring_sizes(g, s, max_h),
                    "lane {k} source {s}"
                );
            }
        }
    }

    #[test]
    fn multi_source_empty_and_zero_radius() {
        let g = path5();
        let mut stats = BfsStats::default();
        assert!(multi_source_ring_counts(&g, &[], 3, &mut stats).is_empty());
        let rings = multi_source_ring_counts(&g, &[2], 0, &mut stats);
        assert_eq!(rings, vec![vec![1]]);
    }

    #[test]
    fn auto_heuristic_thresholds() {
        use KernelPolicy::{Auto, Bitset, Scalar};
        let pick = |p, n, m, c| select_kernel(p, n, m, c) == KernelChoice::Bitset;
        // Forced policies ignore the shape.
        assert!(!pick(Scalar, 1 << 20, 1 << 22, 64));
        assert!(pick(Bitset, 10, 9, 1));
        // Auto: small stays scalar, large goes bitset.
        assert!(!pick(Auto, 1500, 3000, 42));
        assert!(pick(Auto, 8192, 16000, 42));
        // Dense graphs flip earlier…
        assert!(pick(Auto, 4096, 4096 * 16, 42));
        assert!(!pick(Auto, 4096, 4096 * 4, 42));
        // …and a single center never pays for batch setup.
        assert!(!pick(Auto, 1 << 20, 1 << 22, 1));
    }

    #[test]
    fn policy_tag_and_default() {
        assert_eq!(KernelPolicy::Bitset.tag(), "bitset");
        assert_eq!(KernelPolicy::default(), KernelPolicy::Auto);
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = BfsStats {
            words_scanned: 3,
            frontier_passes: 1,
            pull_passes: 1,
        };
        a.merge(&BfsStats {
            words_scanned: 4,
            frontier_passes: 2,
            pull_passes: 0,
        });
        assert_eq!(a.words_scanned, 7);
        assert_eq!(a.frontier_passes, 3);
        assert_eq!(a.pull_passes, 1);
    }
}

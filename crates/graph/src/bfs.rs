//! Breadth-first search primitives.
//!
//! The paper's ball-growing methodology (§3.2.1) is built entirely on
//! hop-count shortest paths: balls of radius `h`, reachable-set sizes per
//! radius (the expansion metric), and — for the hierarchy analysis of §5 —
//! shortest-path counts σ and the shortest-path DAG used to distribute
//! equal-cost traversal weights over links (footnote 27).
//!
//! [`DistScratch`] is the one single-source BFS every ball center grows
//! on: reusable across runs, optionally stopped by a reached-node limit,
//! and able to build the balls of its run. The allocating
//! [`distances_bounded`] is its test oracle, and the 64-lane passes that
//! serve many expansion sources at once live in [`crate::bfs_bitset`].
//!
//! [`path_dag`] is the one BFS that builds a shortest-path DAG. It runs
//! over node states with a caller's step rule, so the plain DAG
//! ([`shortest_path_dag`], one state per node) and the valley-free one
//! (`topogen_policy::valley`, two) are the same loop.

use crate::subgraph::{induced_subgraph_by, SubgraphMap};
use crate::{Graph, NodeId, UNREACHED};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Hop distances from `src` to every node (`UNREACHED` where unreachable).
pub fn distances(g: &Graph, src: NodeId) -> Vec<u32> {
    distances_bounded(g, src, u32::MAX)
}

/// Hop distances from `src`, exploring only up to `max_h` hops.
/// Nodes farther than `max_h` are left `UNREACHED`.
pub fn distances_bounded(g: &Graph, src: NodeId, max_h: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.node_count()];
    dist[src as usize] = 0;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[u as usize];
        if du >= max_h {
            continue;
        }
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// Reusable single-source BFS scratch: a visited bitmap, the reached
/// nodes level by level, each reached node's position among them, and
/// where each hop level ends.
///
/// `distances_bounded` allocates (and later scans) a full `n`-sized
/// vector per call, which churns the allocator when sampled runs grow
/// thousands of balls that each touch only a tiny fraction of the
/// graph. The scratch keeps its buffers alive across runs and clears
/// only the bits the previous run set, so a run costs O(reached) work
/// and zero steady-state allocation. Each level's frontier is the
/// `touched` slice the previous level appended, so no queue is kept.
///
/// The same scratch builds the run's balls ([`ball`](Self::ball)): the
/// ball of radius `h` is the reached nodes of levels `0..=h`, each level
/// sorted by id on first use, and a neighbor's index in the ball is its
/// position — an O(1) lookup with no `n`-sized map per ball.
#[derive(Debug, Default)]
pub struct DistScratch {
    /// Visited bitmap; `pos[v]` is valid iff bit `v` is set.
    visited: Vec<u64>,
    /// `touched[pos[v]] == v` for every reached node `v`.
    pos: Vec<u32>,
    /// Reached nodes in non-decreasing distance order.
    touched: Vec<NodeId>,
    /// `levels[d]` is where hop level `d` ends in `touched`: the number
    /// of nodes within `d` hops. Only levels the run reached are listed.
    levels: Vec<usize>,
    /// How many leading levels are sorted by id.
    sorted: usize,
}

impl DistScratch {
    /// A fresh scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch sized for graphs of up to `n` nodes, allocated up front
    /// so that runs on other threads never grow it.
    pub fn with_nodes(n: usize) -> Self {
        DistScratch {
            visited: vec![0; n.div_ceil(64)],
            pos: vec![0; n],
            touched: Vec::with_capacity(n),
            levels: Vec::new(),
            sorted: 0,
        }
    }

    /// Run a bounded BFS from `src`, replacing any previous contents.
    /// Nodes farther than `max_h` hops are left unvisited, and a level
    /// starts only while at most `max_nodes` nodes are reached: the run
    /// stops after the first level whose reached set exceeds
    /// `max_nodes`, and levels past it read as empty. Pass `usize::MAX`
    /// for no limit.
    pub fn run_bounded(&mut self, g: &Graph, src: NodeId, max_h: u32, max_nodes: usize) {
        let n = g.node_count();
        for &v in &self.touched {
            self.visited[v as usize / 64] &= !(1u64 << (v % 64));
        }
        if self.pos.len() < n {
            self.visited.resize(n.div_ceil(64), 0);
            self.pos.resize(n, 0);
        }
        self.touched.clear();
        self.levels.clear();
        self.sorted = 0;
        self.visit(src);
        self.levels.push(1);
        let mut lo = 0;
        loop {
            let hi = self.touched.len();
            if lo == hi || self.levels.len() > max_h as usize || hi > max_nodes {
                break;
            }
            for i in lo..hi {
                for &v in g.neighbors(self.touched[i]) {
                    if !self.reached(v) {
                        self.visit(v);
                    }
                }
            }
            lo = hi;
            if self.touched.len() > hi {
                self.levels.push(self.touched.len());
            }
        }
    }

    /// Mark `v` reached, at the next position.
    fn visit(&mut self, v: NodeId) {
        self.visited[v as usize / 64] |= 1u64 << (v % 64);
        self.pos[v as usize] = self.touched.len() as u32;
        self.touched.push(v);
    }

    /// Whether the most recent run reached `v`.
    fn reached(&self, v: NodeId) -> bool {
        self.visited
            .get(v as usize / 64)
            .is_some_and(|word| word & (1u64 << (v % 64)) != 0)
    }

    /// Distance of `v` in the most recent run (`UNREACHED` if unvisited).
    pub fn dist(&self, v: NodeId) -> u32 {
        if !self.reached(v) {
            return UNREACHED;
        }
        let p = self.pos[v as usize] as usize;
        self.levels.partition_point(|&end| end <= p) as u32
    }

    /// Counts of nodes at *exactly* each hop distance `0..=max_h` for
    /// the most recent run (which must have been bounded by `max_h`).
    /// After a run cut short by its node limit, rings past the last
    /// level it ran are zero.
    pub fn ring_sizes(&self, max_h: u32) -> Vec<usize> {
        let mut rings = vec![0usize; max_h as usize + 1];
        let mut start = 0;
        for (ring, &end) in rings.iter_mut().zip(&self.levels) {
            *ring = end - start;
            start = end;
        }
        rings
    }

    /// Sort the first `count` levels by id (once per run), keeping
    /// `pos` in step.
    fn sort_levels(&mut self, count: usize) {
        while self.sorted < count {
            let start = self.sorted.checked_sub(1).map_or(0, |d| self.levels[d]);
            let end = self.levels[self.sorted];
            // Ids are distinct, so the unstable sort is deterministic.
            self.touched[start..end].sort_unstable();
            for k in start..end {
                self.pos[self.touched[k] as usize] = k as u32;
            }
            self.sorted += 1;
        }
    }

    /// Nodes reached by the most recent run, sorted by `(distance, id)`
    /// — the deterministic ball order of [`ball_nodes`].
    pub fn ball_nodes_sorted(&mut self) -> Vec<NodeId> {
        self.sort_levels(self.levels.len());
        self.touched.clone()
    }

    /// The ball of radius `h` of the most recent run: the subgraph and
    /// node order [`crate::subgraph::ball`] builds. A radius past the
    /// last level the run reached gives everything it reached, which is
    /// that ball unless the node limit stopped the run.
    pub fn ball(&mut self, g: &Graph, h: u32) -> (Graph, SubgraphMap) {
        let last = self.levels.len() - 1;
        let h = (h as usize).min(last);
        self.sort_levels(h + 1);
        let size = self.levels[h];
        induced_subgraph_by(g, &self.touched[..size], |w| {
            self.reached(w)
                .then(|| self.pos[w as usize])
                .filter(|&p| (p as usize) < size)
        })
    }
}

thread_local! {
    static SCRATCH: RefCell<DistScratch> = RefCell::new(DistScratch::new());
}

/// Run `f` against this worker thread's shared [`DistScratch`].
fn with_scratch<R>(f: impl FnOnce(&mut DistScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Nodes within `h` hops of `src` (including `src`), in BFS order.
pub fn ball_nodes(g: &Graph, src: NodeId, h: u32) -> Vec<NodeId> {
    with_scratch(|s| {
        s.run_bounded(g, src, h, usize::MAX);
        // BFS order by distance, ties by id — deterministic.
        s.ball_nodes_sorted()
    })
}

/// For one source, the number of nodes at *exactly* each hop distance
/// `0..=max_h` (index 0 counts the source itself).
pub fn ring_sizes(g: &Graph, src: NodeId, max_h: u32) -> Vec<usize> {
    with_scratch(|s| {
        s.run_bounded(g, src, max_h, usize::MAX);
        s.ring_sizes(max_h)
    })
}

/// Eccentricity of `src`: the maximum finite hop distance to any reachable
/// node.
pub fn eccentricity(g: &Graph, src: NodeId) -> u32 {
    distances(g, src)
        .into_iter()
        .filter(|&d| d != UNREACHED)
        .max()
        .unwrap_or(0)
}

/// The equal-cost shortest-path DAG from one source, over node states:
/// state `v * states_per_node + phase` is node `v` in `phase`. Plain
/// paths have one state per node, so states are nodes; valley-free paths
/// have two (`topogen_policy::valley`).
#[derive(Clone, Debug)]
pub struct PathDag {
    /// Hop distance per state (`UNREACHED` where unreached).
    pub dist: Vec<u32>,
    /// σ per state: the number of distinct shortest paths from the source
    /// that arrive in it. The count can explode combinatorially on dense
    /// graphs, so it is an `f64`; only *ratios* of σ are ever consumed
    /// (footnote 27).
    pub sigma: Vec<f64>,
    /// Predecessor states of each state, in the order the BFS found them.
    pub preds: Vec<Vec<u32>>,
    /// Reached states in BFS (non-decreasing distance) order.
    pub order: Vec<u32>,
    /// Per node: the least distance over its states.
    pub node_dist: Vec<u32>,
    /// How many states each node has.
    pub states_per_node: u32,
    /// The source node.
    pub source: NodeId,
}

impl PathDag {
    /// The node of state `s`.
    pub fn node_of(&self, s: u32) -> NodeId {
        s / self.states_per_node
    }

    /// The states of node `v` that realize its shortest distance (none
    /// when `v` is unreached).
    pub fn terminal_states(&self, v: NodeId) -> Vec<u32> {
        let d = self.node_dist[v as usize];
        if d == UNREACHED {
            return Vec::new();
        }
        let base = v * self.states_per_node;
        (base..base + self.states_per_node)
            .filter(|&s| self.dist[s as usize] == d)
            .collect()
    }

    /// Total number of shortest paths from the source to node `v`.
    pub fn sigma_to(&self, v: NodeId) -> f64 {
        self.terminal_states(v)
            .into_iter()
            .map(|s| self.sigma[s as usize])
            .sum()
    }
}

/// The path DAG from `src` (a Brandes-style forward pass over states).
/// The path starts at `src` in phase 0; `step(u, v, phase)` gives the
/// phase a path in `phase` at `u` enters neighbour `v` in, or `None`
/// when it may not cross that link. Neighbours are scanned in
/// [`Graph::neighbors`] order, and `order` doubles as the FIFO queue.
pub fn path_dag(
    g: &Graph,
    src: NodeId,
    states_per_node: u32,
    mut step: impl FnMut(NodeId, NodeId, u32) -> Option<u32>,
) -> PathDag {
    let spn = states_per_node;
    let ns = g.node_count() * spn as usize;
    let mut dist = vec![UNREACHED; ns];
    let mut sigma = vec![0.0f64; ns];
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); ns];
    let mut order = Vec::with_capacity(ns);
    let s0 = src * spn;
    dist[s0 as usize] = 0;
    sigma[s0 as usize] = 1.0;
    order.push(s0);
    let mut head = 0;
    while let Some(&s) = order.get(head) {
        head += 1;
        let (u, phase) = (s / spn, s % spn);
        let du = dist[s as usize];
        for &v in g.neighbors(u) {
            let Some(next) = step(u, v, phase) else {
                continue;
            };
            let sv = v * spn + next;
            if dist[sv as usize] == UNREACHED {
                dist[sv as usize] = du + 1;
                order.push(sv);
            }
            if dist[sv as usize] == du + 1 {
                sigma[sv as usize] += sigma[s as usize];
                preds[sv as usize].push(s);
            }
        }
    }
    let node_dist = dist
        .chunks(spn as usize)
        .map(|states| states.iter().copied().min().unwrap_or(UNREACHED))
        .collect();
    PathDag {
        dist,
        sigma,
        preds,
        order,
        node_dist,
        states_per_node: spn,
        source: src,
    }
}

/// The plain shortest-path DAG from `src`: one state per node, and every
/// link may be crossed.
pub fn shortest_path_dag(g: &Graph, src: NodeId) -> PathDag {
    path_dag(g, src, 1, |_, _, _| Some(0))
}

/// Average shortest-path length over all connected ordered pairs, computed
/// by running BFS from every node in `sources` (pass all nodes for the
/// exact value, or a sample for an estimate). Returns `None` when no pair
/// is connected.
pub fn average_path_length(g: &Graph, sources: &[NodeId]) -> Option<f64> {
    let mut total = 0u64;
    let mut pairs = 0u64;
    for &s in sources {
        for &d in &distances(g, s) {
            if d != UNREACHED && d > 0 {
                total += d as u64;
                pairs += 1;
            }
        }
    }
    if pairs == 0 {
        None
    } else {
        Some(total as f64 / pairs as f64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::subgraph;

    /// Path 0-1-2-3-4.
    pub(crate) fn path5() -> Graph {
        Graph::from_edges(5, (0..4).map(|i| (i, i + 1)))
    }

    /// A small graph mixing a dense clique with a pendant path and an
    /// isolated node.
    pub(crate) fn mixed() -> Graph {
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                edges.push((a, b));
            }
        }
        edges.extend([(7, 8), (8, 9), (9, 10)]);
        Graph::from_edges(12, edges)
    }

    /// A ring lattice (each node tied to its two nearest neighbors on
    /// either side) plus one long chord per node: small-world enough
    /// that the union of many frontiers covers most nodes for a few
    /// levels.
    pub(crate) fn small_world(n: u32) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push((i, (i + 2) % n));
            edges.push((i, (i * 37 + 11) % n));
        }
        Graph::from_edges(n as usize, edges.into_iter().filter(|(a, b)| a != b))
    }

    #[test]
    fn distances_on_path() {
        let g = path5();
        assert_eq!(distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bounded_distances() {
        let g = path5();
        let d = distances_bounded(&g, 0, 2);
        assert_eq!(d, vec![0, 1, 2, UNREACHED, UNREACHED]);
    }

    #[test]
    fn disconnected_unreached() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        let d = distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d[3], UNREACHED);
    }

    #[test]
    fn ball_nodes_radius() {
        let g = path5();
        assert_eq!(ball_nodes(&g, 2, 0), vec![2]);
        assert_eq!(ball_nodes(&g, 2, 1), vec![2, 1, 3]);
        assert_eq!(ball_nodes(&g, 0, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_sizes_on_star() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        assert_eq!(ring_sizes(&g, 0, 2), vec![1, 4, 0]);
        assert_eq!(ring_sizes(&g, 1, 2), vec![1, 1, 3]);
    }

    #[test]
    fn scratch_matches_fresh_allocation_across_reuse() {
        let star = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let graphs = [path5(), star, mixed()];
        let mut s = DistScratch::new();
        // Interleave graphs of both sizes and bounds: no run may see the
        // previous run's visited bits.
        for round in 0..3 {
            for src in 0..5u32 {
                for max_h in [0, 1, 2, u32::MAX] {
                    for g in &graphs {
                        s.run_bounded(g, src, max_h, usize::MAX);
                        // Balls sort their levels lazily; distances and
                        // the full order must not depend on how far.
                        for h in 0..=max_h.min(src % 4) {
                            let (ball, map) = s.ball(g, h);
                            let (want, want_map) = subgraph::ball(g, src, h);
                            assert_eq!(map.originals(), want_map.originals(), "src {src} h {h}");
                            assert_eq!(ball, want, "src {src} h {h}");
                        }
                        let oracle = distances_bounded(g, src, max_h);
                        for v in g.nodes() {
                            assert_eq!(
                                s.dist(v),
                                oracle[v as usize],
                                "round {round} src {src} max_h {max_h} v {v}"
                            );
                        }
                        let mut reached: Vec<NodeId> = oracle
                            .iter()
                            .enumerate()
                            .filter(|(_, &d)| d != UNREACHED)
                            .map(|(i, _)| i as NodeId)
                            .collect();
                        reached.sort_by_key(|&v| (oracle[v as usize], v));
                        assert_eq!(s.ball_nodes_sorted(), reached);
                    }
                }
            }
        }
    }

    #[test]
    fn node_limit_stops_after_the_first_level_over_it() {
        for g in [path5(), mixed(), small_world(120)] {
            let n = g.node_count();
            let mut s = DistScratch::new();
            for src in [0, n as NodeId / 2, n as NodeId - 1] {
                let want = distances(&g, src);
                for limit in (0..=n).chain([usize::MAX]) {
                    s.run_bounded(&g, src, u32::MAX, limit);
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

    #[test]
    fn eccentricity_values() {
        let g = path5();
        assert_eq!(eccentricity(&g, 0), 4);
        assert_eq!(eccentricity(&g, 2), 2);
        let iso = Graph::empty(3);
        assert_eq!(eccentricity(&iso, 0), 0);
    }

    #[test]
    fn sigma_counts_equal_cost_paths() {
        // 4-cycle: two shortest paths between opposite corners.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let dag = shortest_path_dag(&g, 0);
        assert_eq!(dag.dist, vec![0, 1, 2, 1]);
        assert_eq!(dag.node_dist, dag.dist);
        assert_eq!(dag.sigma[2], 2.0);
        assert_eq!(dag.sigma[1], 1.0);
        assert_eq!(dag.sigma_to(2), 2.0);
        assert_eq!(dag.terminal_states(2), vec![2]);
        assert_eq!(dag.node_of(2), 2);
        // Predecessors arrive in BFS order: 1 is dequeued before 3.
        assert_eq!(dag.preds[2], vec![1, 3]);
    }

    #[test]
    fn dag_order_is_by_distance() {
        let g = path5();
        let dag = shortest_path_dag(&g, 0);
        let ds: Vec<u32> = dag.order.iter().map(|&v| dag.dist[v as usize]).collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(dag.order.len(), 5);
    }

    #[test]
    fn apl_on_path() {
        let g = path5();
        let nodes: Vec<NodeId> = g.nodes().collect();
        // Sum over ordered pairs of |i-j| = 2*(4*1+3*2+2*3+1*4)=40; pairs=20.
        assert_eq!(average_path_length(&g, &nodes), Some(2.0));
    }

    #[test]
    fn apl_disconnected_none() {
        let g = Graph::empty(3);
        let nodes: Vec<NodeId> = g.nodes().collect();
        assert_eq!(average_path_length(&g, &nodes), None);
    }

    #[test]
    fn grid_sigma() {
        // 3x3 grid; paths from corner (0) to opposite corner (8):
        // number of monotone lattice paths = C(4,2) = 6.
        let mut edges = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                let v = r * 3 + c;
                if c + 1 < 3 {
                    edges.push((v, v + 1));
                }
                if r + 1 < 3 {
                    edges.push((v, v + 3));
                }
            }
        }
        let g = Graph::from_edges(9, edges);
        let dag = shortest_path_dag(&g, 0);
        assert_eq!(dag.dist[8], 4);
        assert_eq!(dag.sigma[8], 6.0);
    }
}

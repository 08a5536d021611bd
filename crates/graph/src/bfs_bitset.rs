//! The batched 64-lane BFS kernel for large sampled-center runs, and
//! the choice of when expansion sources share it.
//!
//! The paper's ball-growing methodology samples centers on large graphs
//! (§3.2.1: "a sufficiently large number of randomly chosen nodes").
//! The expansion metric E(h) needs only the ring sizes of many sources,
//! and at router-level scale (~170k nodes) one BFS per source in
//! [`crate::bfs`] becomes the hot path. [`multi_source_ring_counts`]
//! advances up to 64 sources per pass instead: each node carries a
//! `u64` lane mask (bit `k` = "source `k` has reached this node"). It is
//! direction-optimizing (Beamer et al., SC 2012). A **push** level ORs
//! whole lane words across the frontier's edges (`next[u] |= front[v]`,
//! `new = next & !visited`), so 64 traversals cost one sweep. Once the
//! frontier's adjacency exceeds `1/LANE_ALPHA` (half) of the adjacency
//! of the *open* nodes — those some lane has not reached yet — the level
//! runs as a **pull** instead: it walks the open list in node order, ORs
//! the frontier words of each node's neighbors until every lane the node
//! lacks is covered, and writes the node's new lanes once. A push level
//! does a scattered read-modify-write per edge and then a second
//! scattered pass over the touched nodes; a pull level writes each node
//! once, in order, and nodes every lane has reached leave the open list
//! for good. On small-world graphs the union of 64 frontiers holds
//! nearly every node for several levels, and there a pull level wins
//! even when no node completes its lanes early. Either way a level's
//! per-lane ring counts accumulate in a bit-sliced counter, a few word
//! operations per node rather than one increment per lane.
//!
//! Hop-count BFS levels are unique, so every lane's ring counts equal
//! the scalar oracle's exactly and E(h) is bit-identical on either path.
//! Ball centers never take lanes: every single-source run, capped or
//! not, is [`crate::bfs::DistScratch`].
//!
//! [`KernelPolicy`] + [`select_kernel`] hold the engine-facing heuristic
//! for whether a plan's expansion-only centers share lane passes, so the
//! batch CLI and the serve daemon share one instrumented decision point.

use crate::{Graph, NodeId};

/// Whether the metrics engine runs expansion-only centers in 64-lane
/// passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Decide per plan from graph size, density, and centers requested
    /// (see [`select_kernel`]).
    #[default]
    Auto,
    /// Always one scalar BFS per center.
    Scalar,
    /// Always share 64-lane passes among expansion-only centers.
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
    /// One scalar BFS per center.
    Scalar,
    /// Expansion-only centers share 64-lane passes; every other center
    /// still runs one scalar BFS.
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

/// `Auto` switches to lane passes at this node count.
pub const AUTO_MIN_NODES: usize = 8192;
/// …or at this node count when the graph is dense (avg degree ≥ 32),
/// where per-level edge rescans make the direction switch pay earlier.
pub const AUTO_MIN_NODES_DENSE: usize = 2048;

/// Pick the kernel for a plan over a graph with `n` nodes and `m`
/// (undirected) edges, serving `centers` total sampled centers.
///
/// The `Auto` heuristic is deliberately coarse and fully deterministic:
/// lane passes pay off once their per-node sweeps amortize over enough
/// nodes (`n ≥ 8192`, or `n ≥ 2048` on dense graphs where `m/n ≥ 16`)
/// and at least two centers share the batched setup. Everything at the
/// calibration scales (`Scale::Small`, ≤ ~1.5k nodes) therefore keeps
/// the scalar path — and its archived byte-identical outputs — while
/// paper-RL-sized runs (~170k) get lane passes.
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

/// Deterministic work counters for the lane kernel: `u64` lane words
/// touched by sweeps and probes, and frontier passes executed. Counts
/// depend only on the graph and the sources, never on thread count or
/// timing, so they can feed the ratcheting perf gate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BfsStats {
    /// Lane words read or written, in both directions.
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

/// A multi-source level runs bottom-up when its frontier's adjacency
/// exceeds `1/LANE_ALPHA` of the open nodes' adjacency — "more than
/// half". Chosen by measured time on the sampled large-tier graphs, not
/// by the word counter: a pull level may read more words than the push
/// level it replaces and still run faster, because it writes each node
/// once, in order.
const LANE_ALPHA: u64 = 2;

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
    use crate::bfs;
    use crate::bfs::tests::{mixed, path5, small_world};

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

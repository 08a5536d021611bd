//! The shared ball-source abstraction.
//!
//! Every per-ball metric runs over subgraphs produced by some notion of a
//! "ball of radius h around a center". The paper uses two: plain
//! shortest-path balls, and — for the measured AS/RL graphs —
//! *policy-induced* balls (Appendix E). [`BallSource`] abstracts over
//! both so metric code is written once: a source grows a center once
//! ([`BallSource::grow`]), and the [`Growth`] knows the size of the
//! ball at every radius and builds any of them on demand.

use rand::seq::SliceRandom;
use rand::Rng;
use topogen_graph::bfs::{DistScratch, PathDag};
use topogen_graph::subgraph::SubgraphMap;
use topogen_graph::{Graph, NodeId, UNREACHED};
use topogen_policy::balls::policy_ball_from_dag;
use topogen_policy::overlay::RouterOverlay;
use topogen_policy::rel::AsAnnotations;
use topogen_policy::valley::policy_shortest_path_dag;

/// A source of ball subgraphs over some underlying topology.
pub trait BallSource: Sync {
    /// The underlying node count (for sampling centers).
    fn node_count(&self) -> usize;

    /// Grow `center` once, under this source's path notion, out to
    /// radius `max_h`. The growth holds the size of every radius's ball
    /// and builds any of them. It may stop after the first radius whose
    /// ball exceeds `max_nodes`; the sizes past that radius are not
    /// exact then. A plain source runs its BFS on `scratch` and its
    /// growth borrows it; the other sources ignore it.
    fn grow<'s>(
        &'s self,
        center: NodeId,
        max_h: u32,
        max_nodes: usize,
        scratch: &'s mut DistScratch,
    ) -> Growth<'s>;

    /// The underlying plain graph, when this source's balls are plain
    /// shortest-path balls over it — the precondition for 64-lane
    /// expansion passes. Policy/overlay sources return `None` (their
    /// path notion is not plain BFS).
    fn plain_graph(&self) -> Option<&Graph> {
        None
    }
}

/// One center grown once: the size of its ball at every radius, and
/// what the source builds those balls from.
pub struct Growth<'a> {
    /// `sizes[h]` is the node count of the ball of radius `h`, for every
    /// `h` in `0..=max_h`. A BFS stopped at its node limit counts only
    /// through the first radius whose ball exceeds it.
    pub sizes: Vec<usize>,
    balls: Balls<'a>,
}

/// What a [`Growth`] builds its balls from.
enum Balls<'a> {
    /// The BFS from the center, on the scratch it ran on.
    Plain(&'a Graph, &'a mut DistScratch),
    /// The valley-free DAG from the center.
    Policy(&'a Graph, PathDag),
    /// The router distance field from the center.
    Overlay(&'a RouterOverlay<'a>, Vec<u32>),
}

impl Growth<'_> {
    /// The ball of radius `h`: the subgraph and node order that
    /// [`topogen_graph::subgraph::ball`], `policy_ball` or
    /// `policy_router_ball` build for it. A plain growth stopped at its
    /// node limit builds balls only through the first radius over it.
    pub fn ball(&mut self, h: u32) -> (Graph, SubgraphMap) {
        match &mut self.balls {
            Balls::Plain(g, scratch) => scratch.ball(g, h),
            Balls::Policy(g, dag) => policy_ball_from_dag(g, dag, h),
            Balls::Overlay(overlay, dist) => overlay.policy_router_ball_from_dist(dist, h),
        }
    }
}

/// Cumulative ball sizes from ring sizes (the node counts at exactly
/// each distance).
pub(crate) fn cumulative(mut rings: Vec<usize>) -> Vec<usize> {
    for h in 1..rings.len() {
        rings[h] += rings[h - 1];
    }
    rings
}

/// Cumulative ball sizes for radii `0..=max_h` from a distance field.
fn sizes_within(dist: &[u32], max_h: u32) -> Vec<usize> {
    let mut rings = vec![0usize; max_h as usize + 1];
    for &d in dist {
        if d != UNREACHED && d <= max_h {
            rings[d as usize] += 1;
        }
    }
    cumulative(rings)
}

/// Plain shortest-path balls over a graph.
pub struct PlainBalls<'a> {
    /// The underlying graph.
    pub graph: &'a Graph,
}

impl<'a> BallSource for PlainBalls<'a> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn grow<'s>(
        &'s self,
        center: NodeId,
        max_h: u32,
        max_nodes: usize,
        scratch: &'s mut DistScratch,
    ) -> Growth<'s> {
        // One bounded BFS serves every radius: ball `h` is the reached
        // set through level `h`, which the scratch builds on demand.
        scratch.run_bounded(self.graph, center, max_h, max_nodes);
        Growth {
            sizes: cumulative(scratch.ring_sizes(max_h)),
            balls: Balls::Plain(self.graph, scratch),
        }
    }

    fn plain_graph(&self) -> Option<&Graph> {
        Some(self.graph)
    }
}

/// Policy-induced balls over an annotated AS graph (Appendix E).
pub struct PolicyBalls<'a> {
    /// The AS graph.
    pub graph: &'a Graph,
    /// Relationship annotations.
    pub annotations: &'a AsAnnotations,
}

impl<'a> BallSource for PolicyBalls<'a> {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn grow<'s>(
        &'s self,
        center: NodeId,
        max_h: u32,
        _max_nodes: usize,
        _scratch: &'s mut DistScratch,
    ) -> Growth<'s> {
        let dag = policy_shortest_path_dag(self.graph, self.annotations, center);
        Growth {
            sizes: sizes_within(&dag.node_dist, max_h),
            balls: Balls::Policy(self.graph, dag),
        }
    }
}

/// Policy-constrained router-level balls through an AS overlay — the
/// paper's RL(Policy) series (Appendix E's two-step construction).
pub struct OverlayBalls<'a> {
    /// The router-level overlay (router graph + AS graph + annotations).
    pub overlay: RouterOverlay<'a>,
}

impl<'a> BallSource for OverlayBalls<'a> {
    fn node_count(&self) -> usize {
        self.overlay.routers.node_count()
    }

    fn grow<'s>(
        &'s self,
        center: NodeId,
        max_h: u32,
        _max_nodes: usize,
        _scratch: &'s mut DistScratch,
    ) -> Growth<'s> {
        let dist = self.overlay.policy_router_distances(center);
        Growth {
            sizes: sizes_within(&dist, max_h),
            balls: Balls::Overlay(&self.overlay, dist),
        }
    }
}

/// Choose up to `k` ball centers uniformly without replacement (the
/// paper: "for larger subgraphs, we repeated the computation for \[a\]
/// sufficiently large number of randomly chosen nodes, in order to keep
/// computation times reasonable").
pub fn sample_centers<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<NodeId> {
    if k >= n {
        return (0..n as NodeId).collect();
    }
    if n > FLOYD_THRESHOLD {
        return sample_centers_floyd(n, k, rng);
    }
    let mut all: Vec<NodeId> = (0..n as NodeId).collect();
    all.shuffle(rng);
    all.truncate(k);
    all.sort_unstable();
    all
}

/// Above this node count, center sampling switches from the O(n)
/// shuffle-and-truncate to Floyd's O(k) algorithm. Every tier with
/// archived outputs sits far below the threshold, so their center sets
/// (and everything downstream) stay byte-identical; the million-node
/// tier stops materializing and shuffling a 4 MB id vector per suite
/// cell just to keep 8 of them.
const FLOYD_THRESHOLD: usize = 100_000;

/// Floyd's sampling: k distinct ids from `0..n` in O(k) time and space.
/// The distinctness guarantee is structural — each iteration inserts
/// exactly one id not yet in the set — not probabilistic.
fn sample_centers_floyd<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<NodeId> {
    let mut picked = std::collections::HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..j as u64 + 1) as NodeId;
        if !picked.insert(t) {
            picked.insert(j as NodeId);
        }
    }
    let mut out: Vec<NodeId> = picked.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_policy::rel::annotations_from_pairs;

    fn path5() -> Graph {
        Graph::from_edges(5, (0..4).map(|i| (i, i + 1)))
    }

    #[test]
    fn plain_balls_radii() {
        let g = path5();
        let src = PlainBalls { graph: &g };
        let mut scratch = DistScratch::new();
        let mut growth = src.grow(2, 2, usize::MAX, &mut scratch);
        let balls: Vec<_> = (0..growth.sizes.len() as u32)
            .map(|h| growth.ball(h))
            .collect();
        assert_eq!(balls.len(), 3);
        assert_eq!(balls[0].0.node_count(), 1);
        assert_eq!(balls[1].0.node_count(), 3);
        assert_eq!(balls[2].0.node_count(), 5);
    }

    #[test]
    fn policy_balls_respect_valleys() {
        // 0 prov 1 ← prov 2: node 2 invisible from 0 at any radius.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (2, 1)], &[], &[]);
        let src = PolicyBalls {
            graph: &g,
            annotations: &ann,
        };
        let mut scratch = DistScratch::new();
        let mut growth = src.grow(0, 5, usize::MAX, &mut scratch);
        assert_eq!(growth.ball(5).0.node_count(), 2);
    }

    #[test]
    fn sample_centers_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_centers(10, 20, &mut rng).len(), 10);
        let s = sample_centers(100, 7, &mut rng);
        assert_eq!(s.len(), 7);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sample_centers_distinct_and_in_range_above_floyd_threshold() {
        // The O(k) Floyd path kicks in above 100k nodes; distinctness
        // must be structural, not probabilistic, and unbiased enough
        // that repeated draws differ. Strictly-ascending output implies
        // no duplicates.
        for seed in [1u64, 7, 42, 1234] {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1_000_000usize;
            let s = sample_centers(n, 64, &mut rng);
            assert_eq!(s.len(), 64, "seed {seed}");
            assert!(s.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
            assert!(s.iter().all(|&c| (c as usize) < n), "seed {seed}");
            // Same seed → same sample; different seed → different sample.
            let again = sample_centers(n, 64, &mut StdRng::seed_from_u64(seed));
            assert_eq!(s, again);
        }
        let a = sample_centers(1_000_000, 64, &mut StdRng::seed_from_u64(1));
        let b = sample_centers(1_000_000, 64, &mut StdRng::seed_from_u64(2));
        assert_ne!(a, b);
    }
}

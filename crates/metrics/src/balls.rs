//! The shared ball-source abstraction.
//!
//! Every per-ball metric runs over subgraphs produced by some notion of a
//! "ball of radius h around a center". The paper uses two: plain
//! shortest-path balls, and — for the measured AS/RL graphs —
//! *policy-induced* balls (Appendix E). [`BallSource`] abstracts over
//! both so metric code is written once.

use rand::seq::SliceRandom;
use rand::Rng;
use topogen_graph::subgraph::{induced_subgraph, SubgraphMap};
use topogen_graph::{bfs, Graph, NodeId};
use topogen_policy::balls::policy_ball_from_dag;
use topogen_policy::rel::AsAnnotations;
use topogen_policy::valley::policy_shortest_path_dag;

/// A source of ball subgraphs over some underlying topology.
pub trait BallSource: Sync {
    /// The underlying node count (for sampling centers).
    fn node_count(&self) -> usize;

    /// All balls of radii `0..=max_h` around `center`, cheapest computed
    /// together (one BFS serves every radius).
    fn balls_up_to(&self, center: NodeId, max_h: u32) -> Vec<(Graph, SubgraphMap)>;

    /// Distance field from `center` under this source's path notion.
    fn distances(&self, center: NodeId) -> Vec<u32>;

    /// The underlying plain graph, when this source's balls are plain
    /// shortest-path balls over it — the precondition for the batched
    /// bitset kernels. Policy/overlay sources return `None` (their path
    /// notion is not plain BFS) and always take the scalar path.
    fn plain_graph(&self) -> Option<&Graph> {
        None
    }
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

    fn balls_up_to(&self, center: NodeId, max_h: u32) -> Vec<(Graph, SubgraphMap)> {
        // One bounded BFS serves every radius: ball `h` is the prefix of
        // the `(distance, id)`-sorted reached set up to the cumulative
        // ring size — the membership and order `subgraph::ball` builds.
        let (sorted, rings) = bfs::with_scratch(|s| {
            s.run_bounded(self.graph, center, max_h);
            (s.ball_nodes_sorted(), s.ring_sizes(max_h))
        });
        let mut size = 0;
        rings
            .iter()
            .map(|&ring| {
                size += ring;
                induced_subgraph(self.graph, &sorted[..size])
            })
            .collect()
    }

    fn distances(&self, center: NodeId) -> Vec<u32> {
        bfs::distances(self.graph, center)
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

    fn balls_up_to(&self, center: NodeId, max_h: u32) -> Vec<(Graph, SubgraphMap)> {
        let dag = policy_shortest_path_dag(self.graph, self.annotations, center);
        (0..=max_h)
            .map(|h| policy_ball_from_dag(self.graph, &dag, h))
            .collect()
    }

    fn distances(&self, center: NodeId) -> Vec<u32> {
        let dag = policy_shortest_path_dag(self.graph, self.annotations, center);
        dag.node_dist
    }
}

/// Policy-constrained router-level balls through an AS overlay — the
/// paper's RL(Policy) series (Appendix E's two-step construction).
pub struct OverlayBalls<'a> {
    /// The router-level overlay (router graph + AS graph + annotations).
    pub overlay: topogen_policy::overlay::RouterOverlay<'a>,
}

impl<'a> BallSource for OverlayBalls<'a> {
    fn node_count(&self) -> usize {
        self.overlay.routers.node_count()
    }

    fn balls_up_to(&self, center: NodeId, max_h: u32) -> Vec<(Graph, SubgraphMap)> {
        let dist = self.overlay.policy_router_distances(center);
        (0..=max_h)
            .map(|h| self.overlay.policy_router_ball_from_dist(&dist, h))
            .collect()
    }

    fn distances(&self, center: NodeId) -> Vec<u32> {
        self.overlay.policy_router_distances(center)
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
        let balls = src.balls_up_to(2, 2);
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
        let balls = src.balls_up_to(0, 5);
        assert_eq!(balls.last().unwrap().0.node_count(), 2);
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

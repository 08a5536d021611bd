//! Shared arbitrary-graph generators: the seeded builders every
//! invariant derives its cases from, plus the proptest strategies that
//! the workspace's property tests were previously duplicating inline.
//!
//! Everything is a pure function of its seed — the same seed always
//! rebuilds the same case, which is what makes the runner's
//! `TOPOGEN_CHECK=suite:invariant:seed` lines complete repros.

use proptest::prelude::*;
use topogen_graph::{Graph, NodeId};
use topogen_policy::rel::{AsAnnotations, Relationship};

/// The tiny deterministic generator behind every seeded case: a 64-bit
/// LCG (Knuth's MMIX multiplier) returning the well-mixed high bits.
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// A stream seeded by `seed` (zero is mapped off the fixed point).
    pub fn new(seed: u64) -> Lcg {
        Lcg { state: seed | 1 }
    }

    /// Next 31 well-mixed bits, as the `usize` every index draw wants.
    #[allow(clippy::should_implement_trait)] // not an Iterator: never ends, infallible
    pub fn next(&mut self) -> usize {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 33) as usize
    }

    /// A draw in `0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.next() % n
    }
}

/// Arbitrary simple graph: `n` nodes, up to `edges` random pairs,
/// self-loops filtered, duplicates collapsed by the CSR builder.
/// Possibly disconnected — the adversarial shape for BFS kernels.
pub fn sparse_graph(n: usize, edges: usize, seed: u64) -> Graph {
    let mut rng = Lcg::new(seed);
    let pairs = (0..edges)
        .map(|_| (rng.below(n) as NodeId, rng.below(n) as NodeId))
        .filter(|(u, v)| u != v);
    Graph::from_edges(n, pairs)
}

/// Arbitrary connected graph: a random tree (each node hangs off an
/// earlier one) plus `extra` random non-loop edges.
pub fn connected_graph(n: usize, extra: usize, seed: u64) -> Graph {
    let mut rng = Lcg::new(seed);
    let mut edges = Vec::with_capacity(n.saturating_sub(1) + extra);
    for v in 1..n {
        edges.push((rng.below(v) as NodeId, v as NodeId));
    }
    for _ in 0..extra {
        let u = rng.below(n) as NodeId;
        let v = rng.below(n) as NodeId;
        if u != v {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, edges)
}

/// Arbitrary graph for the BFS kernels: 2–300 nodes in one of four
/// shapes — sparse and often disconnected, dense (average degree 8–30),
/// small-world (a ring lattice plus random chords), or two disjoint
/// parts of those shapes — so that multi-source passes meet both sparse
/// levels, which run top-down, and levels where the frontiers cover
/// most nodes, which run bottom-up.
pub fn bfs_graph(seed: u64) -> Graph {
    let mut rng = Lcg::new(seed);
    let n = 2 + rng.below(299);
    let edges: Vec<(NodeId, NodeId)> = match rng.below(4) {
        3 => {
            let a = 1 + rng.below(n - 1);
            let left = bfs_part(a, rng.below(3), rng.next() as u64);
            let right = bfs_part(n - a, rng.below(3), rng.next() as u64);
            let shift = a as NodeId;
            left.into_iter()
                .chain(right.into_iter().map(|(u, v)| (u + shift, v + shift)))
                .collect()
        }
        shape => bfs_part(n, shape, rng.next() as u64),
    };
    Graph::from_edges(n, edges)
}

/// The edges of one [`bfs_graph`] shape over `n` nodes: 0 sparse, 1
/// dense, 2 small-world.
fn bfs_part(n: usize, shape: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = Lcg::new(seed);
    let g = match shape {
        0 => sparse_graph(n, rng.below(3 * n + 1), rng.next() as u64),
        1 => sparse_graph(n, n * (4 + rng.below(12)), rng.next() as u64),
        _ => {
            let reach = 1 + rng.below(3);
            let lattice = (0..n).flat_map(|u| (1..=reach).map(move |d| (u, (u + d) % n)));
            let chords: Vec<(usize, usize)> = (0..rng.below(n / 2 + 1))
                .map(|_| (rng.below(n), rng.below(n)))
                .collect();
            Graph::from_edges(
                n,
                lattice
                    .chain(chords)
                    .filter(|(u, v)| u != v)
                    .map(|(u, v)| (u as NodeId, v as NodeId)),
            )
        }
    };
    g.edges().iter().map(|e| (e.a, e.b)).collect()
}

/// Arbitrary connected AS graph: [`connected_graph`] with each edge's
/// relationship drawn uniformly from provider–customer (either way),
/// peer and sibling — enough valleys that some pairs are unroutable
/// under the valley-free policy.
pub fn annotated_graph(n: usize, extra: usize, seed: u64) -> (Graph, AsAnnotations) {
    let g = connected_graph(n, extra, seed);
    // A stream of its own, so the draws do not echo the graph's.
    let mut rng = Lcg::new(seed ^ 0xA5_A5A5);
    let kinds = [
        Relationship::ProviderOfB,
        Relationship::CustomerOfB,
        Relationship::Peer,
        Relationship::Sibling,
    ];
    let rels = (0..g.edge_count()).map(|_| kinds[rng.below(4)]).collect();
    let ann = AsAnnotations::new(&g, rels);
    (g, ann)
}

/// Proptest strategy: arbitrary (possibly disconnected) graph of up to
/// 30 nodes and up to 80 random edge pairs.
pub fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..30, 0usize..80, any::<u64>()).prop_map(|(n, edges, seed)| sparse_graph(n, edges, seed))
}

/// Proptest strategy: [`bfs_graph`] — up to 300 nodes, sparse, dense,
/// small-world or disjoint.
pub fn arb_bfs_graph() -> impl Strategy<Value = Graph> {
    any::<u64>().prop_map(bfs_graph)
}

/// Proptest strategy: arbitrary connected graph of up to 30 nodes
/// (random tree plus `n` extra edges).
pub fn arb_connected() -> impl Strategy<Value = Graph> {
    (2usize..30, any::<u64>()).prop_map(|(n, seed)| connected_graph(n, n, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_graph::components::components;

    #[test]
    fn builders_are_deterministic_in_the_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = connected_graph(17, 17, seed);
            let b = connected_graph(17, 17, seed);
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.edges(), b.edges());
            let c = sparse_graph(9, 20, seed);
            let d = sparse_graph(9, 20, seed);
            assert_eq!(c.edges(), d.edges());
        }
    }

    #[test]
    fn connected_graph_is_connected() {
        for seed in 0..32u64 {
            let g = connected_graph(2 + (seed as usize % 28), 5, seed);
            assert_eq!(components(&g).sizes.len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn annotated_graphs_are_deterministic_and_leave_pairs_unroutable() {
        use topogen_graph::UNREACHED;
        use topogen_policy::valley::policy_distances;
        let mut unroutable = 0;
        for seed in 0..16u64 {
            let (g, ann) = annotated_graph(12, 6, seed);
            let (h, bnn) = annotated_graph(12, 6, seed);
            assert_eq!(g.edges(), h.edges());
            assert_eq!(ann.agreement(&bnn), 1.0);
            assert_eq!(components(&g).sizes.len(), 1, "seed {seed}");
            unroutable += (0..12)
                .filter(|&u| policy_distances(&g, &ann, u).contains(&UNREACHED))
                .count();
        }
        assert!(unroutable > 0, "no valley ever blocked a pair");
    }

    #[test]
    fn bfs_graphs_cover_every_shape() {
        let (mut disconnected, mut dense, mut large) = (0, 0, 0);
        for seed in 0..64u64 {
            let g = bfs_graph(seed);
            assert_eq!(g.edges(), bfs_graph(seed).edges(), "seed {seed}");
            assert!((2..=300).contains(&g.node_count()));
            assert!(g.edges().iter().all(|e| e.a != e.b));
            disconnected += usize::from(components(&g).sizes.len() > 1);
            dense += usize::from(g.edge_count() >= 4 * g.node_count());
            large += usize::from(g.node_count() > 150);
        }
        assert!(disconnected > 0 && dense > 0 && large > 0);
    }

    #[test]
    fn sparse_graph_has_no_self_loops() {
        for seed in 0..16u64 {
            let g = sparse_graph(8, 40, seed);
            assert!(g.edges().iter().all(|e| e.a != e.b));
        }
    }
}

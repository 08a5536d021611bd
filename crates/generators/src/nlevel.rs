//! GT-ITM's N-level hierarchical generator (Zegura, Calvert, Donahoo
//! \[50\]; Calvert, Doar, Zegura \[10\]).
//!
//! The paper's structural family has three members in GT-ITM: flat
//! random graphs, the N-level hierarchy, and Transit-Stub. Zegura et
//! al.'s quantitative comparison — the work the paper explicitly extends
//! — used the N-level model, so we include it for completeness: start
//! from a connected random graph, then repeatedly replace every node
//! with another connected random graph, re-attaching each inter-node
//! edge to a random member of the replacement.
//!
//! The result is hierarchical in construction like Transit-Stub but
//! without TS's transit/stub asymmetry; under the paper's metrics it
//! behaves like TS (low resilience — each level's sparse edge cut
//! throttles alternate paths).

use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::unionfind::UnionFind;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Parameters for the N-level generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NLevelParams {
    /// Nodes per level-graph (each node of level k expands into a
    /// `nodes_per_level`-node random graph at level k+1).
    pub nodes_per_level: usize,
    /// Edge probability within each level-graph.
    pub edge_prob: f64,
    /// Number of levels (1 = a flat connected random graph).
    pub levels: usize,
}

impl NLevelParams {
    /// A three-level instance comparable to the paper's TS size:
    /// 10 × 10 × 10 = 1000 nodes, with block density in the range the
    /// GT-ITM examples use (sparse blocks, like TS's stub domains).
    pub fn three_level_1000() -> Self {
        NLevelParams {
            nodes_per_level: 10,
            edge_prob: 0.4,
            levels: 3,
        }
    }

    /// Total node count: `nodes_per_level ^ levels`.
    pub fn node_count(&self) -> usize {
        self.nodes_per_level.pow(self.levels as u32)
    }
}

/// Generate an N-level hierarchical graph. Always connected (each
/// level-graph is patched connected, as in our Transit-Stub).
///
/// # Panics
/// Panics if `levels == 0` or `nodes_per_level == 0`.
pub fn n_level<R: Rng>(params: &NLevelParams, rng: &mut R) -> Graph {
    assert!(params.levels >= 1);
    assert!(params.nodes_per_level >= 1);
    // Level 1: one connected random graph.
    let mut current = connected_random(params.nodes_per_level, params.edge_prob, rng);
    for _ in 1..params.levels {
        current = expand(&current, params, rng);
    }
    current
}

impl crate::generate::Generate for NLevelParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        // Every level-graph is patched connected, so the whole is too.
        n_level(self, rng)
    }

    fn canonical_params(&self) -> String {
        format!(
            "nodes_per_level={},edge_prob={:?},levels={}",
            self.nodes_per_level, self.edge_prob, self.levels
        )
    }
}

/// Replace every node of `g` with a fresh connected random graph,
/// re-attaching each original edge between random members of the two
/// replacement blocks.
fn expand<R: Rng>(g: &Graph, params: &NLevelParams, rng: &mut R) -> Graph {
    let k = params.nodes_per_level;
    let n = g.node_count() * k;
    let mut b = GraphBuilder::new(n);
    let block = |v: NodeId, i: usize| v * k as NodeId + i as NodeId;
    // Intra-block random graphs.
    for v in g.nodes() {
        let members: Vec<NodeId> = (0..k).map(|i| block(v, i)).collect();
        random_block(&mut b, &members, params.edge_prob, rng);
    }
    // Original edges re-attached to random members.
    for e in g.edges() {
        let u = block(e.a, rng.gen_range(0..k));
        let v = block(e.b, rng.gen_range(0..k));
        b.add_edge(u, v);
    }
    b.build()
}

fn connected_random<R: Rng>(k: usize, prob: f64, rng: &mut R) -> Graph {
    let mut b = GraphBuilder::new(k);
    let members: Vec<NodeId> = (0..k as NodeId).collect();
    random_block(&mut b, &members, prob, rng);
    b.build()
}

/// G(k, prob) over `members`, patched connected (same policy as the
/// Transit-Stub blocks).
fn random_block<R: Rng>(b: &mut GraphBuilder, members: &[NodeId], prob: f64, rng: &mut R) {
    let k = members.len();
    let mut uf = UnionFind::new(k);
    for i in 0..k {
        for j in (i + 1)..k {
            if rng.gen::<f64>() < prob {
                b.add_edge(members[i], members[j]);
                uf.union(i as u32, j as u32);
            }
        }
    }
    for i in 1..k {
        if !uf.same(0, i as u32) {
            uf.union(0, i as u32);
            let other = rng.gen_range(0..i);
            b.add_edge(members[other], members[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_graph::components::is_connected;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(50)
    }

    #[test]
    fn node_count_formula() {
        let p = NLevelParams::three_level_1000();
        assert_eq!(p.node_count(), 1000);
        let g = n_level(&p, &mut rng());
        assert_eq!(g.node_count(), 1000);
        assert!(is_connected(&g));
    }

    #[test]
    fn one_level_is_flat_random() {
        let p = NLevelParams {
            nodes_per_level: 40,
            edge_prob: 0.1,
            levels: 1,
        };
        let g = n_level(&p, &mut rng());
        assert_eq!(g.node_count(), 40);
        assert!(is_connected(&g));
    }

    #[test]
    fn hierarchy_throttles_cross_block_edges() {
        // At the top level there are at most C(k,2)·p + patching edges
        // between blocks, far fewer than the intra-block total.
        let p = NLevelParams {
            nodes_per_level: 8,
            edge_prob: 0.35,
            levels: 2,
        };
        let g = n_level(&p, &mut rng());
        let k = 8u32;
        let cross = g.edges().iter().filter(|e| e.a / k != e.b / k).count();
        // Cross edges = the level-1 graph's edge count ≤ C(8,2) = 28,
        // and in expectation ≈ 10.
        assert!(cross <= 28, "cross-block edges {cross}");
        assert!(cross >= 7, "level-1 graph must be connected: {cross}");
    }

    #[test]
    fn deterministic() {
        let p = NLevelParams::three_level_1000();
        let a = n_level(&p, &mut StdRng::seed_from_u64(1));
        let b = n_level(&p, &mut StdRng::seed_from_u64(1));
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    #[should_panic]
    fn zero_levels_rejected() {
        let p = NLevelParams {
            nodes_per_level: 4,
            edge_prob: 0.5,
            levels: 0,
        };
        let _ = n_level(&p, &mut rng());
    }
}

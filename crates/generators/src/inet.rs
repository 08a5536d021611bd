//! An Inet-style generator (Jin, Chen, Jamin \[24\]).
//!
//! Inet assigns node degrees from a power law, verifies the sequence can
//! yield a connected graph, then connects in three phases (Appendix D.1):
//! build a spanning tree among the nodes of degree larger than one,
//! attach the degree-one nodes to the tree with degree-proportional
//! probability, and finally satisfy the remaining degrees in decreasing
//! degree order. The result is connected by construction.

use crate::degseq::{evenize, natural_cutoff, power_law_degrees};
use rand::rngs::StdRng;
use rand::Rng;
use topogen_graph::{Graph, GraphBuilder, NodeId};

/// Parameters for the Inet-style generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InetParams {
    /// Number of nodes.
    pub n: usize,
    /// Power-law exponent for the degree sequence (Inet 2.x fits ≈ 2.2
    /// for AS graphs of this era).
    pub alpha: f64,
}

impl InetParams {
    /// An AS-graph-like instance.
    pub fn paper_default(n: usize) -> Self {
        InetParams { n, alpha: 2.2 }
    }
}

/// Generate an Inet-style graph from sampled power-law degrees.
pub fn inet<R: Rng>(params: &InetParams, rng: &mut R) -> Graph {
    let cutoff = natural_cutoff(params.n, params.alpha);
    let mut degrees = power_law_degrees(params.n, params.alpha, cutoff, rng);
    // Inet's feasibility step: ensure enough degree->1 nodes have
    // partners; we only need parity plus a nonempty tree core.
    if !degrees.iter().any(|&d| d > 1) {
        // Degenerate draw (tiny n): force one hub.
        if let Some(first) = degrees.first_mut() {
            *first = 2;
        }
    }
    evenize(&mut degrees);
    inet_from_degrees(&degrees, rng)
}

/// The Inet connection procedure over an explicit degree sequence.
pub fn inet_from_degrees<R: Rng>(degrees: &[usize], rng: &mut R) -> Graph {
    let n = degrees.len();
    let mut b = GraphBuilder::new(n);
    if n == 0 {
        return b.build();
    }
    let mut residual: Vec<i64> = degrees.iter().map(|&d| d as i64).collect();
    let mut adj: Vec<std::collections::HashSet<NodeId>> = vec![Default::default(); n];
    let connect = |b: &mut GraphBuilder,
                   adj: &mut Vec<std::collections::HashSet<NodeId>>,
                   residual: &mut Vec<i64>,
                   u: NodeId,
                   v: NodeId| {
        b.add_edge(u, v);
        adj[u as usize].insert(v);
        adj[v as usize].insert(u);
        residual[u as usize] -= 1;
        residual[v as usize] -= 1;
    };

    // Phase 1: spanning tree among degree > 1 nodes. Attach each new tree
    // node to an in-tree node picked with degree-proportional probability
    // ("proportional connectivity").
    let mut core: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| degrees[v as usize] > 1)
        .collect();
    // Highest-degree node first makes the tree hub-centric, as Inet does.
    core.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
    let mut in_tree: Vec<NodeId> = Vec::new();
    for &v in &core {
        if in_tree.is_empty() {
            in_tree.push(v);
            continue;
        }
        let t = pick_proportional_open(&in_tree, degrees, &residual, rng);
        connect(&mut b, &mut adj, &mut residual, v, t);
        in_tree.push(v);
    }

    // Phase 2: attach degree-1 nodes to the tree proportionally.
    let leaves: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| degrees[v as usize] == 1)
        .collect();
    for &v in &leaves {
        if in_tree.is_empty() {
            // No core at all (all degree <= 1): pair leaves up.
            continue;
        }
        let t = pick_proportional_open(&in_tree, degrees, &residual, rng);
        connect(&mut b, &mut adj, &mut residual, v, t);
    }
    if in_tree.is_empty() {
        // All-degree-1 corner case: pair consecutive leaves.
        for pair in leaves.chunks_exact(2) {
            connect(&mut b, &mut adj, &mut residual, pair[0], pair[1]);
        }
        return b.build();
    }

    // Phase 3: satisfy remaining degrees in decreasing degree order,
    // partners chosen proportionally to their assigned degree.
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
    for &v in &order {
        let mut guard = 0usize;
        while residual[v as usize] > 0 && guard < 100 + 20 * n {
            guard += 1;
            let candidates: Vec<NodeId> = (0..n as NodeId)
                .filter(|&w| w != v && residual[w as usize] > 0 && !adj[v as usize].contains(&w))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let t = pick_proportional(&candidates, degrees, rng);
            connect(&mut b, &mut adj, &mut residual, v, t);
        }
    }
    b.build()
}

/// Degree-proportional pick that prefers nodes with unsatisfied degree,
/// falling back to the whole set when every candidate is saturated (the
/// attachment must happen to keep the graph connected — this mirrors
/// Inet's behaviour when a degree sequence is slightly infeasible).
fn pick_proportional_open<R: Rng>(
    items: &[NodeId],
    degrees: &[usize],
    residual: &[i64],
    rng: &mut R,
) -> NodeId {
    let open: Vec<NodeId> = items
        .iter()
        .copied()
        .filter(|&v| residual[v as usize] > 0)
        .collect();
    if open.is_empty() {
        pick_proportional(items, degrees, rng)
    } else {
        pick_proportional(&open, degrees, rng)
    }
}

fn pick_proportional<R: Rng>(items: &[NodeId], degrees: &[usize], rng: &mut R) -> NodeId {
    let total: usize = items.iter().map(|&v| degrees[v as usize]).sum();
    if total == 0 {
        return items[rng.gen_range(0..items.len())];
    }
    let mut r = rng.gen_range(0..total);
    for &v in items {
        let w = degrees[v as usize];
        if r < w {
            return v;
        }
        r -= w;
    }
    *items.last().unwrap()
}

impl crate::generate::Generate for InetParams {
    fn generate(&self, rng: &mut StdRng) -> Graph {
        topogen_graph::components::largest_component(&inet(self, rng)).0
    }

    fn canonical_params(&self) -> String {
        format!("n={},alpha={:?}", self.n, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_graph::components::is_connected;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    #[test]
    fn inet_is_connected() {
        let g = inet(&InetParams::paper_default(2000), &mut rng());
        assert_eq!(g.node_count(), 2000);
        assert!(
            is_connected(&g),
            "Inet graphs are connected by construction"
        );
    }

    #[test]
    fn inet_heavy_tail() {
        let g = inet(&InetParams::paper_default(5000), &mut rng());
        assert!(g.max_degree() as f64 > 10.0 * g.average_degree());
    }

    #[test]
    fn inet_degrees_bounded_by_request() {
        let degrees = vec![6, 4, 3, 2, 2, 1, 1, 1];
        let g = inet_from_degrees(&degrees, &mut rng());
        for (v, &d) in degrees.iter().enumerate() {
            // Spanning tree phase may exceed a node's budget by at most
            // the tree edge (residual can go negative only via tree
            // attach of nodes whose degree is already exhausted — which
            // phase 1 prevents by only attaching each node once).
            assert!(g.degree(v as u32) <= d + 1);
        }
    }

    #[test]
    fn inet_all_leaves_pairs_up() {
        let g = inet_from_degrees(&[1, 1, 1, 1], &mut rng());
        assert_eq!(g.edge_count(), 2);
        assert!(g.nodes().all(|v| g.degree(v) == 1));
    }

    #[test]
    fn inet_deterministic() {
        let p = InetParams { n: 500, alpha: 2.3 };
        let g1 = inet(&p, &mut StdRng::seed_from_u64(3));
        let g2 = inet(&p, &mut StdRng::seed_from_u64(3));
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn inet_empty() {
        let g = inet_from_degrees(&[], &mut rng());
        assert_eq!(g.node_count(), 0);
    }
}

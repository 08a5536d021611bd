//! Vertex cover growth (Appendix B, Figure 8(a–c); metric suggested by
//! Park \[33\] in the context of traceback placement).
//!
//! The size of a (approximately minimum) vertex cover of the subgraph
//! inside balls of growing size. Exact minimum vertex cover is NP-hard;
//! we provide both the classical matching-based 2-approximation (with a
//! guarantee) and the greedy max-degree heuristic (usually smaller), and
//! use the smaller of the two.

use topogen_graph::{Graph, NodeId};

/// Matching-based 2-approximate vertex cover: take both endpoints of a
/// maximal matching. |cover| ≤ 2·OPT.
pub fn vertex_cover_matching(g: &Graph) -> Vec<NodeId> {
    let mut covered = vec![false; g.node_count()];
    let mut cover = Vec::new();
    for e in g.edges() {
        if !covered[e.a as usize] && !covered[e.b as usize] {
            covered[e.a as usize] = true;
            covered[e.b as usize] = true;
            cover.push(e.a);
            cover.push(e.b);
        }
    }
    cover
}

/// Greedy max-degree vertex cover: repeatedly take the node covering the
/// most uncovered edges. No constant-factor guarantee but usually beats
/// the matching bound in practice.
pub fn vertex_cover_greedy(g: &Graph) -> Vec<NodeId> {
    let n = g.node_count();
    let mut uncovered_deg: Vec<usize> = g.degrees();
    let mut in_cover = vec![false; n];
    let mut edge_covered = vec![false; g.edge_count()];
    let mut remaining = g.edge_count();
    let mut cover = Vec::new();
    // Simple priority loop; O(n² + m) worst case, fine at ball scales.
    while remaining > 0 {
        let v = (0..n)
            .filter(|&v| !in_cover[v])
            .max_by_key(|&v| uncovered_deg[v])
            .expect("uncovered edges imply an available node");
        if uncovered_deg[v] == 0 {
            break;
        }
        in_cover[v] = true;
        cover.push(v as NodeId);
        for &w in g.neighbors(v as NodeId) {
            let ei = g.edge_index(v as NodeId, w).unwrap();
            if !edge_covered[ei] {
                edge_covered[ei] = true;
                remaining -= 1;
                uncovered_deg[v] -= 1;
                if !in_cover[w as usize] {
                    uncovered_deg[w as usize] -= 1;
                }
            }
        }
    }
    cover
}

/// Smallest cover size found by the two heuristics.
pub fn vertex_cover_size(g: &Graph) -> usize {
    vertex_cover_matching(g)
        .len()
        .min(vertex_cover_greedy(g).len())
}

/// Whether `cover` covers every edge of `g` (test/validation helper).
pub fn is_vertex_cover(g: &Graph, cover: &[NodeId]) -> bool {
    let mut inc = vec![false; g.node_count()];
    for &v in cover {
        inc[v as usize] = true;
    }
    g.edges()
        .iter()
        .all(|e| inc[e.a as usize] || inc[e.b as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_generators::canonical::{complete, kary_tree, mesh, ring};

    #[test]
    fn covers_are_valid() {
        for g in [kary_tree(3, 4), mesh(8, 8), ring(15), complete(10)] {
            let m = vertex_cover_matching(&g);
            assert!(is_vertex_cover(&g, &m), "matching cover invalid");
            let gr = vertex_cover_greedy(&g);
            assert!(is_vertex_cover(&g, &gr), "greedy cover invalid");
        }
    }

    #[test]
    fn star_cover_is_one() {
        let g = Graph::from_edges(10, (1..10).map(|i| (0, i)));
        assert_eq!(vertex_cover_greedy(&g).len(), 1);
        assert_eq!(vertex_cover_size(&g), 1);
    }

    #[test]
    fn complete_graph_cover() {
        // Minimum cover of K_n is n-1; greedy finds it.
        let g = complete(8);
        assert_eq!(vertex_cover_size(&g), 7);
    }

    #[test]
    fn ring_cover_half() {
        // C_2k needs k nodes.
        let g = ring(10);
        assert_eq!(vertex_cover_size(&g), 5);
    }

    #[test]
    fn matching_within_factor_two() {
        let g = mesh(6, 6);
        let m = vertex_cover_matching(&g).len();
        let opt_lb = g.edge_count() / 4; // Each node covers ≤ 4 edges.
        assert!(m <= 4 * opt_lb.max(1), "matching {m}");
        assert!(m >= 2, "nonempty");
    }

    #[test]
    fn edgeless_empty_cover() {
        let g = Graph::empty(5);
        assert_eq!(vertex_cover_size(&g), 0);
        assert!(is_vertex_cover(&g, &[]));
    }

    #[test]
    fn cover_grows_monotone_with_ball() {
        use crate::engine::{plain_curve, CoverMetric};
        let g = mesh(9, 9);
        let metric = CoverMetric {
            max_ball_nodes: 10_000,
        };
        let c = plain_curve(&g, &[40], 8, 0, &metric);
        let finite: Vec<f64> = c
            .iter()
            .filter(|p| p.value.is_finite())
            .map(|p| p.value)
            .collect();
        assert!(finite.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(c[0].value, 0.0);
    }
}

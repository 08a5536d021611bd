//! Clustering coefficients (Figure 10; after Watts–Strogatz \[46\], used
//! by Bu–Towsley \[8\] to distinguish degree-based generators).
//!
//! The clustering coefficient of a node with degree ≥ 2 is the fraction
//! of its neighbor pairs that are themselves adjacent; a graph's
//! coefficient is the average over such nodes. The paper computes it both
//! with ball-growing (where PLRG tracks the AS graph) and on the whole
//! graph (where it does not — "PLRG … may not capture the local
//! properties", §4.4).

use topogen_graph::{Graph, NodeId};

/// Clustering coefficient of one node (`None` when degree < 2).
pub fn node_clustering(g: &Graph, v: NodeId) -> Option<f64> {
    let neigh = g.neighbors(v);
    let d = neigh.len();
    if d < 2 {
        return None;
    }
    let mut links = 0usize;
    for i in 0..d {
        for j in (i + 1)..d {
            if g.has_edge(neigh[i], neigh[j]) {
                links += 1;
            }
        }
    }
    Some(2.0 * links as f64 / (d * (d - 1)) as f64)
}

/// Average clustering coefficient over all nodes of degree ≥ 2 (`None`
/// if no such node exists).
pub fn graph_clustering(g: &Graph) -> Option<f64> {
    let vals: Vec<f64> = (0..g.node_count() as NodeId)
        .filter_map(|v| node_clustering(g, v))
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topogen_generators::canonical::{complete, kary_tree, mesh, ring};

    #[test]
    fn complete_graph_fully_clustered() {
        let g = complete(6);
        assert_eq!(graph_clustering(&g), Some(1.0));
        assert_eq!(node_clustering(&g, 0), Some(1.0));
    }

    #[test]
    fn tree_zero_clustering() {
        let g = kary_tree(3, 4);
        assert_eq!(graph_clustering(&g), Some(0.0));
    }

    #[test]
    fn ring_zero_mesh_zero() {
        assert_eq!(graph_clustering(&ring(10)), Some(0.0));
        assert_eq!(graph_clustering(&mesh(5, 5)), Some(0.0));
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle 0-1-2 plus tail 2-3: nodes 0,1 have C=1; node 2 has
        // C = 1/3; node 3 degree 1 excluded. Average = (1+1+1/3)/3.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let c = graph_clustering(&g).unwrap();
        assert!((c - (2.0 + 1.0 / 3.0) / 3.0).abs() < 1e-12);
        assert_eq!(node_clustering(&g, 3), None);
    }

    #[test]
    fn degree_one_only_graph() {
        let g = Graph::from_edges(4, vec![(0, 1), (2, 3)]);
        assert_eq!(graph_clustering(&g), None);
    }

    #[test]
    fn clique_ball_clustering_is_one() {
        use crate::engine::{plain_curve, ClusteringMetric};
        let g = complete(8);
        let c = plain_curve(
            &g,
            &[0],
            1,
            0,
            &ClusteringMetric {
                max_ball_nodes: 100,
            },
        );
        assert_eq!(c[1].value, 1.0);
        assert!(c[0].value.is_nan()); // single-node ball has no C
    }
}

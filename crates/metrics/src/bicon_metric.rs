//! Biconnected-component growth (Appendix B, Figure 8(d–f); after Zegura
//! et al. \[50\]).
//!
//! The number of biconnected components inside balls of growing size.
//! Tree-like graphs accumulate one component per edge; richly connected
//! graphs collapse into a few large biconnected blocks.
//!
//! The per-ball count is the engine consumer
//! [`BiconMetric`](crate::engine::BiconMetric).

use topogen_graph::bicon::biconnected_component_count;

/// Ratio of biconnected components to edges on the whole graph — 1.0 for
/// a tree (every edge a bridge), near 0 for biconnected graphs. A cheap
/// whole-graph summary.
pub fn bridge_fraction(g: &topogen_graph::Graph) -> f64 {
    if g.edge_count() == 0 {
        return 0.0;
    }
    biconnected_component_count(g) as f64 / g.edge_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{plain_curve, BiconMetric};
    use topogen_generators::canonical::{kary_tree, mesh, ring};

    const METRIC: BiconMetric = BiconMetric {
        max_ball_nodes: 10_000,
    };

    #[test]
    fn tree_bicon_counts_equal_edges() {
        let g = kary_tree(2, 5); // 63 nodes, 62 edges
        let c = plain_curve(&g, &[0], 5, 0, &METRIC);
        let last = c.last().unwrap();
        assert_eq!(last.value, 62.0);
        assert_eq!(bridge_fraction(&g), 1.0);
    }

    #[test]
    fn ring_is_single_component() {
        let g = ring(12);
        assert!((bridge_fraction(&g) - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn mesh_low_bridge_fraction() {
        let g = mesh(8, 8);
        assert!(bridge_fraction(&g) < 0.05);
    }

    #[test]
    fn curve_radius_zero_is_zero() {
        let g = mesh(5, 5);
        let c = plain_curve(&g, &[12], 2, 0, &METRIC);
        assert_eq!(c[0].value, 0.0);
        assert!(c[1].value >= 1.0);
    }
}

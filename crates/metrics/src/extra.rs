//! The paper's "additional metrics ... of our own devising" (footnote
//! 22): the average path length between any two nodes in a ball of size
//! n, and the expected max-flow between the center of a ball and nodes
//! on its surface. The paper reports both were consistent with — but not
//! more discriminating than — the three basic metrics; we include them
//! for completeness and as cross-checks.
//!
//! Both run as engine consumers:
//! [`PathLengthMetric`](crate::engine::PathLengthMetric) and
//! [`SurfaceFlowMetric`](crate::engine::SurfaceFlowMetric).

use topogen_graph::bfs::distances;
use topogen_graph::flow::max_flow_unit;
use topogen_graph::{Graph, NodeId, UNREACHED};

/// Mean unit max-flow from ball node 0 (the center by construction of
/// [`topogen_graph::subgraph::ball`]) to up to `samples` surface nodes.
pub(crate) fn ball_surface_flow(g: &Graph, max_ball_nodes: usize, samples: usize) -> Option<f64> {
    let n = g.node_count();
    if n < 2 || n > max_ball_nodes {
        return None;
    }
    let d = distances(g, 0);
    let maxd = d.iter().filter(|&&x| x != UNREACHED).max().copied()?;
    if maxd == 0 {
        return None;
    }
    let surface: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| d[v as usize] == maxd)
        .collect();
    let step = (surface.len() / samples.max(1)).max(1);
    let picked: Vec<NodeId> = surface.iter().step_by(step).copied().collect();
    if picked.is_empty() {
        return None;
    }
    let total: u64 = picked.iter().map(|&t| max_flow_unit(g, 0, t)).sum();
    Some(total as f64 / picked.len() as f64)
}

#[cfg(test)]
mod tests {
    use crate::engine::{plain_curve, PathLengthMetric, SurfaceFlowMetric};
    use topogen_generators::canonical::{kary_tree, mesh, ring};

    const FLOW: SurfaceFlowMetric = SurfaceFlowMetric {
        max_ball_nodes: 1000,
        surface_samples: 6,
    };

    #[test]
    fn path_length_curve_on_ring() {
        let g = ring(12);
        let c = plain_curve(
            &g,
            &[0, 6],
            6,
            0,
            &PathLengthMetric {
                max_ball_nodes: 1000,
            },
        );
        // Radius-1 balls are 3-node paths: APL = (1+1+2+2+1+1)/6 = 4/3.
        assert!((c[1].value - 4.0 / 3.0).abs() < 1e-9);
        // Radius 6 closes the cycle: APL of C12 = 36/11 (per node the
        // distances 1,1,2,2,…,5,5,6 sum to 36 over 11 pairs). Note the
        // value *drops* from the radius-5 path's — ball APL need not be
        // monotone.
        assert!(
            (c[6].value - 36.0 / 11.0).abs() < 1e-9,
            "C12 APL {}",
            c[6].value
        );
    }

    #[test]
    fn tree_surface_flow_is_one() {
        let g = kary_tree(3, 4);
        let c = plain_curve(&g, &[0], 4, 0, &FLOW);
        for p in c.iter().filter(|p| p.value.is_finite()) {
            assert!((p.value - 1.0).abs() < 1e-9, "tree flow {}", p.value);
        }
    }

    #[test]
    fn mesh_surface_flow_exceeds_tree() {
        let g = mesh(9, 9);
        let c = plain_curve(&g, &[40], 4, 0, &FLOW);
        // Some surface nodes sit in degree-2 pockets of the ball, so the
        // average lands between 1 and 2 — still clearly above the
        // tree's 1.0.
        let last = c.iter().rev().find(|p| p.value.is_finite()).unwrap();
        assert!(last.value > 1.2, "mesh flow {}", last.value);
    }

    #[test]
    fn degenerate_balls_skipped() {
        let g = kary_tree(2, 2);
        let flow = SurfaceFlowMetric {
            max_ball_nodes: 1000,
            surface_samples: 4,
        };
        let c = plain_curve(&g, &[0], 0, 0, &flow);
        assert!(c[0].value.is_nan());
    }
}

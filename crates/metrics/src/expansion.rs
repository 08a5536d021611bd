//! Expansion E(h): the rate of spreading (§3.2.1).
//!
//! "E(h) is the average fraction of nodes in the graph that fall within a
//! ball of radius h centered at a node in the topology." A tree or
//! random graph expands exponentially (`E(h) ∝ k^h / N`); a mesh
//! quadratically (`E(h) ∝ h² / N`) — the distinction behind Figure
//! 2(a,d,g,j).
//!
//! E(h) itself is computed by the shared-ball engine: register
//! expansion centers on a [`BallPlan`](crate::engine::BallPlan) and read
//! [`PlanResult::expansion`](crate::engine::PlanResult::expansion).
//!
//! ```
//! use topogen_graph::Graph;
//! use topogen_metrics::balls::PlainBalls;
//! use topogen_metrics::engine::BallPlan;
//!
//! // A 5-cycle seen from every node: 1 node at h=0, 3 by h=1, all by h=2.
//! let g = Graph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
//! let src = PlainBalls { graph: &g };
//! let e = BallPlan::new(&src, 2, 0).expansion_centers(g.nodes().collect()).run().expansion;
//! assert_eq!(e, vec![0.2, 0.6, 1.0]);
//! ```

/// The smallest radius at which E(h) reaches `fraction` (e.g. 0.9), or
/// `None` if it never does within the curve. A compact "effective
/// diameter" statistic.
pub fn radius_reaching(curve: &[f64], fraction: f64) -> Option<u32> {
    curve.iter().position(|&e| e >= fraction).map(|h| h as u32)
}

/// Exponential growth rate of the expansion curve: the mean of
/// `ln(E(h+1)/E(h))` over the radii where the cumulative reach is between
/// 5% and 70% of all nodes. In that mid-range an exponentially expanding
/// graph still multiplies its reach by ≈ its branching factor each hop,
/// while a mesh-like graph's ratio `((h+1)/h)²` has already decayed
/// toward 1. This single number is what the L/H expansion classification
/// thresholds.
pub fn expansion_growth_rate(curve: &[f64]) -> f64 {
    let lo = 0.05;
    let hi = 0.7;
    let mut rates = Vec::new();
    for w in curve.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a >= lo && a <= hi && b > a {
            rates.push((b / a).ln());
        }
    }
    if rates.is_empty() {
        // Degenerate (tiny graph): fall back to the largest single jump.
        return curve
            .windows(2)
            .filter(|w| w[0] > 0.0)
            .map(|w| (w[1] / w[0]).max(1.0).ln())
            .fold(0.0, f64::max);
    }
    rates.iter().sum::<f64>() / rates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::plain_expansion;
    use topogen_generators::canonical::{kary_tree, linear, mesh, random_gnp};
    use topogen_graph::{Graph, NodeId};

    fn all_centers(g: &Graph) -> Vec<NodeId> {
        g.nodes().collect()
    }

    #[test]
    fn expansion_reaches_one() {
        let g = kary_tree(3, 4);
        let e = plain_expansion(&g, &all_centers(&g), 8);
        assert!((e.last().unwrap() - 1.0).abs() < 1e-12);
        assert!((e[0] - 1.0 / g.node_count() as f64).abs() < 1e-12);
        assert!(e.windows(2).all(|w| w[1] >= w[0]), "monotone");
    }

    #[test]
    fn linear_chain_expands_linearly() {
        let g = linear(101);
        let e = plain_expansion(&g, &all_centers(&g), 100);
        // E(h) ≈ (2h+1)/N for interior nodes; growth rate near zero.
        let rate = expansion_growth_rate(&e);
        assert!(rate < 0.1, "rate {rate}");
    }

    #[test]
    fn tree_expands_exponentially() {
        let g = kary_tree(3, 6); // 1093 nodes
        let e = plain_expansion(&g, &all_centers(&g), 14);
        let rate = expansion_growth_rate(&e);
        // Averaged over all centers (mostly deep leaves) the measured
        // rate is ≈ 0.46 — well above the mesh's ≈ 0.12.
        assert!(rate > 0.35, "rate {rate}");
    }

    #[test]
    fn mesh_expands_slowly() {
        let g = mesh(30, 30);
        let e = plain_expansion(&g, &all_centers(&g), 58);
        let rate = expansion_growth_rate(&e);
        assert!(rate < 0.2, "rate {rate}");
    }

    #[test]
    fn random_graph_expands_fast() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let g = random_gnp(900, 0.006, &mut rng);
        let (lcc, _) = topogen_graph::components::largest_component(&g);
        let e = plain_expansion(&lcc, &all_centers(&lcc), 15);
        let rate = expansion_growth_rate(&e);
        assert!(rate > 0.6, "rate {rate}");
    }

    #[test]
    fn mesh_vs_tree_ordering() {
        // The paper's qualitative claim: the mesh is the slow one.
        let t = kary_tree(2, 9); // 1023 nodes
        let m = mesh(32, 32); // 1024 nodes
        let rt = expansion_growth_rate(&plain_expansion(&t, &all_centers(&t), 20));
        let rm = expansion_growth_rate(&plain_expansion(&m, &all_centers(&m), 62));
        assert!(rt > rm, "tree {rt} vs mesh {rm}");
    }

    #[test]
    fn radius_reaching_works() {
        let curve = vec![0.1, 0.3, 0.95, 1.0];
        assert_eq!(radius_reaching(&curve, 0.9), Some(2));
        assert_eq!(radius_reaching(&curve, 0.3), Some(1));
        assert_eq!(radius_reaching(&[0.1, 0.2], 0.9), None);
    }

    #[test]
    fn empty_inputs() {
        // No expansion centers: the plan reports no E(h) at all.
        let g = Graph::empty(0);
        assert!(plain_expansion(&g, &[], 3).is_empty());
    }
}

//! Resilience R(n): the existence of alternate paths (§3.2.1).
//!
//! "We define the resilience R(n) to be the average minimum cut-set size
//! within an n-node ball around any node in the topology" — a function of
//! ball *size* rather than radius, "to factor out the fact that graphs
//! with high expansion will have more nodes in balls of the same radius."
//!
//! A tree has R(n) = 1, a mesh R(n) ∝ √n, and a random graph of average
//! degree k has R(n) ∝ kn — the behaviours behind Figure 2(b,e,h,k).
//!
//! The per-ball cut is the engine consumer
//! [`ResilienceMetric`](crate::engine::ResilienceMetric); this module
//! holds the summary statistics the classification reads off its curve.

use crate::CurvePoint;

/// The (n, R) support for the growth-exponent fit: the curve's finite
/// positive points, thinned to a roughly geometric ball-size progression
/// (each kept point's average ball ≥ 20% larger than the previous kept
/// one). The thinning spaces the log–log fit evenly instead of letting
/// dense plateau points dominate, and it trims the saturated tail, where
/// the ball-size cap biases the per-radius average toward the few fringe
/// centers whose balls still fit (their cuts are atypically small).
pub fn resilience_fit_points(curve: &[CurvePoint]) -> Vec<(f64, f64)> {
    let mut pts = Vec::new();
    let mut last_n = 0.0f64;
    for p in curve {
        if p.avg_size >= 2.0 && p.value.is_finite() && p.value > 0.0 && p.avg_size >= 1.2 * last_n {
            last_n = p.avg_size;
            pts.push((p.avg_size, p.value));
        }
    }
    pts
}

/// Log–log slope of R against n over the fit support of
/// [`resilience_fit_points`] — the summary statistic used by the L/H
/// classification (random ≈ 1, mesh ≈ 0.5, tree ≈ 0).
pub fn resilience_growth_exponent(curve: &[CurvePoint]) -> f64 {
    let pts: Vec<(f64, f64)> = resilience_fit_points(curve)
        .into_iter()
        .map(|(n, r)| (n.ln(), r.ln()))
        .collect();
    if pts.len() < 2 {
        return 0.0;
    }
    // Least-squares slope.
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balls::sample_centers;
    use crate::engine::{plain_curve, ResilienceMetric};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use topogen_generators::canonical::{kary_tree, mesh, random_gnp};
    use topogen_graph::components::largest_component;
    use topogen_graph::{Graph, NodeId};

    const PARAMS: ResilienceMetric = ResilienceMetric {
        restarts: 2,
        max_ball_nodes: 2_000,
    };

    /// R(n) around `centers` with plan seed 1.
    fn r_curve(g: &Graph, centers: &[NodeId], max_h: u32, m: &ResilienceMetric) -> Vec<CurvePoint> {
        plain_curve(g, centers, max_h, 1, m)
    }

    #[test]
    fn tree_resilience_stays_low() {
        let g = kary_tree(3, 5); // 364 nodes
        let centers = sample_centers(g.node_count(), 12, &mut StdRng::seed_from_u64(2));
        let p = ResilienceMetric {
            restarts: 6,
            max_ball_nodes: 2_000,
        };
        let curve = r_curve(&g, &centers, 10, &p);
        let last = curve.iter().rev().find(|p| p.value.is_finite()).unwrap();
        // A *ternary* tree's balanced bipartition needs to slice 2–4
        // subtrees to hit 45–55% (a binary tree needs exactly 1); the
        // point is that R stays O(1) rather than growing with n.
        assert!(
            last.value <= 6.5,
            "tree R({}) = {}",
            last.avg_size,
            last.value
        );
        let expo = resilience_growth_exponent(&curve);
        // Stay clearly under the classifier's H boundary (0.28); trees
        // measure ≤ 0.25 across seeds.
        assert!(expo < 0.28, "tree resilience growth exponent {expo}");
    }

    #[test]
    fn random_resilience_grows() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_gnp(500, 0.02, &mut rng);
        let (lcc, _) = largest_component(&g);
        let centers = sample_centers(lcc.node_count(), 8, &mut rng);
        let curve = r_curve(&lcc, &centers, 6, &PARAMS);
        let last = curve.iter().rev().find(|p| p.value.is_finite()).unwrap();
        assert!(
            last.value > 50.0,
            "random R({}) = {}",
            last.avg_size,
            last.value
        );
        let expo = resilience_growth_exponent(&curve);
        assert!(expo > 0.7, "random growth exponent {expo}");
    }

    #[test]
    fn mesh_resilience_sqrt_like() {
        let g = mesh(24, 24);
        let centers = sample_centers(g.node_count(), 10, &mut StdRng::seed_from_u64(3));
        let curve = r_curve(&g, &centers, 20, &PARAMS);
        let expo = resilience_growth_exponent(&curve);
        assert!(
            (0.3..0.85).contains(&expo),
            "mesh growth exponent {expo} (≈ 0.5 expected)"
        );
    }

    #[test]
    fn ordering_tree_below_mesh_below_random() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = kary_tree(3, 5);
        let m = mesh(20, 20);
        let r = {
            let g = random_gnp(400, 0.02, &mut rng);
            largest_component(&g).0
        };
        let val = |g: &Graph, h: u32| {
            let centers = sample_centers(g.node_count(), 8, &mut StdRng::seed_from_u64(4));
            let c = r_curve(g, &centers, h, &PARAMS);
            c.iter().rev().find(|p| p.value.is_finite()).unwrap().value
        };
        let (vt, vm, vr) = (val(&t, 10), val(&m, 20), val(&r, 6));
        assert!(vt < vm, "tree {vt} < mesh {vm}");
        assert!(vm < vr, "mesh {vm} < random {vr}");
    }

    #[test]
    fn ball_size_cap_respected() {
        let g = mesh(20, 20);
        let p = ResilienceMetric {
            restarts: 1,
            max_ball_nodes: 30,
        };
        let curve = r_curve(&g, &[0, 210], 40, &p);
        // Large balls skipped → values become NaN at big radii.
        assert!(curve.last().unwrap().value.is_nan());
        // Small radii still computed.
        assert!(curve[2].value.is_finite());
    }
}

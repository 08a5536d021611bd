//! Property-based tests for the metric suite over arbitrary connected
//! graphs: curve well-formedness, partition validity, distortion bounds.

use proptest::prelude::*;
use topogen_graph::{Graph, NodeId};
use topogen_metrics::balls::PlainBalls;
use topogen_metrics::clustering::graph_clustering;
use topogen_metrics::cover::{is_vertex_cover, vertex_cover_greedy, vertex_cover_matching};
use topogen_metrics::distortion::{graph_distortion, DistortionParams};
use topogen_metrics::engine::{BallPlan, DistortionMetric, ResilienceMetric};
use topogen_metrics::partition::min_balanced_bisection;
use topogen_metrics::CurvePoint;

/// Bitwise equality for curves (NaN-tolerant: NaN == NaN here, because
/// the determinism contract is "same bits", not "same number").
fn same_bits(a: &[CurvePoint], b: &[CurvePoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.radius == y.radius
                && x.avg_size.to_bits() == y.avg_size.to_bits()
                && x.value.to_bits() == y.value.to_bits()
        })
}

fn arb_connected() -> impl Strategy<Value = Graph> {
    (3usize..28, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push(((next() % v) as NodeId, v as NodeId));
        }
        for _ in 0..n {
            let u = (next() % n) as NodeId;
            let v = (next() % n) as NodeId;
            if u != v {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn expansion_is_monotone_cdf(g in arb_connected()) {
        let src = PlainBalls { graph: &g };
        let centers: Vec<NodeId> = g.nodes().collect();
        let e = BallPlan::new(&src, g.node_count() as u32, 0)
            .expansion_centers(centers)
            .run()
            .expansion;
        prop_assert!(e.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        prop_assert!((e.last().unwrap() - 1.0).abs() < 1e-9, "connected ⇒ E → 1");
        prop_assert!((e[0] - 1.0 / g.node_count() as f64).abs() < 1e-12);
    }

    #[test]
    fn bisection_is_balanced_and_consistent(g in arb_connected()) {
        if let Some(b) = min_balanced_bisection(&g, 3, 17) {
            let t = b.side.iter().filter(|&&s| s).count();
            let n = g.node_count();
            // Within the partitioner's documented tolerance (generous
            // slack for tiny graphs where one node is > 10% of a side).
            prop_assert!(t >= 1 && t < n);
            prop_assert!(
                (t as f64 - n as f64 / 2.0).abs() <= 0.1 * n as f64 + 1.0,
                "split {t}/{n}"
            );
            let cut: u64 = g
                .edges()
                .iter()
                .filter(|e| b.side[e.a as usize] != b.side[e.b as usize])
                .count() as u64;
            prop_assert_eq!(cut, b.cut);
        }
    }

    #[test]
    fn distortion_at_least_one(g in arb_connected()) {
        let d = graph_distortion(&g, &DistortionParams::default()).unwrap();
        prop_assert!(d >= 1.0 - 1e-12);
        // A spanning tree realizes every tree edge at distance 1, so a
        // graph with m edges and n nodes has distortion ≤ roughly the
        // diameter; sanity-bound with n.
        prop_assert!(d <= g.node_count() as f64);
    }

    #[test]
    fn distortion_of_tree_is_exactly_one(seed in any::<u64>()) {
        // A random tree's best spanning tree is itself.
        let n = 3 + (seed % 20) as usize;
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let edges: Vec<(NodeId, NodeId)> =
            (1..n).map(|v| ((next() % v) as NodeId, v as NodeId)).collect();
        let g = Graph::from_edges(n, edges);
        let d = graph_distortion(&g, &DistortionParams::default()).unwrap();
        prop_assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vertex_covers_valid_and_ordered(g in arb_connected()) {
        let m = vertex_cover_matching(&g);
        let gr = vertex_cover_greedy(&g);
        prop_assert!(is_vertex_cover(&g, &m));
        prop_assert!(is_vertex_cover(&g, &gr));
        // Matching lower bound: |matching|/2 pairs ⇒ OPT ≥ |m|/2,
        // so greedy (any cover) is ≥ |m|/2 as well.
        prop_assert!(gr.len() >= m.len() / 2);
    }

    #[test]
    fn clustering_in_unit_interval(g in arb_connected()) {
        if let Some(c) = graph_clustering(&g) {
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn ball_plan_identical_across_thread_counts(g in arb_connected(), seed in any::<u64>()) {
        // The engine's determinism contract: the same plan produces
        // bit-identical resilience/distortion curves and expansion
        // values at 1 worker and at N workers. (Agreement with a serial
        // reference is the `kernels/ballplan-matches-reference` check.)
        let src = PlainBalls { graph: &g };
        let ball_centers: Vec<NodeId> = g.nodes().step_by(2).collect();
        let exp_centers: Vec<NodeId> = g.nodes().collect();
        let max_h = 6u32;
        let res = ResilienceMetric { restarts: 2, max_ball_nodes: 1_000 };
        let dis = DistortionMetric { max_ball_nodes: 1_000, use_bartal: false, polish: false };
        let run = |threads: usize| {
            BallPlan::new(&src, max_h, seed)
                .ball_centers(ball_centers.clone())
                .expansion_centers(exp_centers.clone())
                .threads(Some(threads))
                .metric(&res)
                .metric(&dis)
                .run()
        };
        let one = run(1);
        let many = run(4);
        for (ca, cb) in one.curves.iter().zip(&many.curves) {
            prop_assert!(same_bits(ca, cb));
        }
        prop_assert!(one
            .expansion
            .iter()
            .zip(&many.expansion)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn polish_never_worse(g in arb_connected()) {
        let plain = graph_distortion(
            &g,
            &DistortionParams { polish: false, ..Default::default() },
        )
        .unwrap();
        let polished = graph_distortion(
            &g,
            &DistortionParams { polish: true, ..Default::default() },
        )
        .unwrap();
        prop_assert!(polished <= plain + 1e-9, "{polished} > {plain}");
    }
}

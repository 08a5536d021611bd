//! Property-based cross-crate invariants (proptest): the structural
//! facts every experiment silently relies on, checked over arbitrary
//! random graphs and annotated topologies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use topogen::graph::{bfs, Graph, NodeId, UNREACHED};
use topogen::hierarchy::linkvalue::{link_values, PathMode};
use topogen::hierarchy::traversal::link_traversals;
use topogen::measured::as_graph::{internet_as, InternetAsParams};
use topogen::metrics::partition::min_balanced_bisection;
use topogen::policy::valley::policy_distances;

/// Strategy: a random connected-ish graph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..40, any::<u64>()).prop_map(|(n, seed)| {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = topogen::graph::GraphBuilder::new(n);
        // A random spanning tree keeps it connected…
        for v in 1..n {
            let p = rng.gen_range(0..v);
            b.add_edge(p as NodeId, v as NodeId);
        }
        // …plus random extra edges.
        for _ in 0..n {
            let u = rng.gen_range(0..n) as NodeId;
            let v = rng.gen_range(0..n) as NodeId;
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn balls_are_nested_and_cover(g in arb_graph()) {
        let n = g.node_count();
        let center = 0 as NodeId;
        let mut prev = 0usize;
        for h in 0..(n as u32) {
            let nodes = bfs::ball_nodes(&g, center, h);
            prop_assert!(nodes.len() >= prev, "ball shrank at h={h}");
            prev = nodes.len();
        }
        // Connected by construction → the big ball covers everything.
        prop_assert_eq!(prev, n);
    }

    #[test]
    fn bisection_cut_bounded_by_edges(g in arb_graph()) {
        if let Some(b) = min_balanced_bisection(&g, 2, 9) {
            prop_assert!(b.cut <= g.edge_count() as u64);
            // Sides nonempty.
            let t = b.side.iter().filter(|&&s| s).count();
            prop_assert!(t > 0 && t < g.node_count());
            // Reported cut matches the side assignment.
            let real: u64 = g
                .edges()
                .iter()
                .filter(|e| b.side[e.a as usize] != b.side[e.b as usize])
                .count() as u64;
            prop_assert_eq!(b.cut, real);
        }
    }

    #[test]
    fn traversal_weights_conserve_path_length(g in arb_graph()) {
        let t = link_traversals(&g, &PathMode::Shortest);
        let mut per_pair: std::collections::HashMap<(NodeId, NodeId), f64> =
            Default::default();
        for link in &t {
            for pw in link {
                *per_pair.entry((pw.u, pw.v)).or_insert(0.0) += pw.w;
                prop_assert!(pw.w > 0.0 && pw.w <= 1.0 + 1e-9);
            }
        }
        for ((u, v), total) in per_pair {
            let d = bfs::distances(&g, u)[v as usize] as f64;
            prop_assert!((total - d).abs() < 1e-6, "pair ({u},{v}): {total} vs {d}");
        }
    }

    #[test]
    fn link_values_are_normalized(g in arb_graph()) {
        let values = link_values(&g, &PathMode::Shortest);
        prop_assert_eq!(values.len(), g.edge_count());
        for v in values {
            // A cover never weighs more than all nodes (normalized ≤ 1,
            // with slack for the 2-approximation).
            prop_assert!((0.0..=2.0).contains(&v), "link value {v}");
        }
    }

    #[test]
    fn eccentricity_triangle_inequality(g in arb_graph()) {
        // ecc(u) ≤ ecc(v) + d(u, v) for connected graphs.
        let e0 = bfs::eccentricity(&g, 0);
        let d = bfs::distances(&g, 0);
        for v in 1..g.node_count() as NodeId {
            let ev = bfs::eccentricity(&g, v);
            prop_assert!(e0 <= ev + d[v as usize]);
            prop_assert!(ev <= e0 + d[v as usize]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn synthetic_internet_invariants(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = internet_as(
            &InternetAsParams { n: 150, ..InternetAsParams::default_scaled() },
            &mut rng,
        );
        // Connected and annotation-aligned.
        prop_assert!(topogen::graph::components::is_connected(&m.graph));
        let (pc, peer, sib) = m.annotations.counts();
        prop_assert_eq!(pc + peer + sib, m.graph.edge_count());
        // Policy reachability is total (peered core covers the world),
        // and never beats plain shortest paths.
        let plain = bfs::distances(&m.graph, 0);
        let pol = policy_distances(&m.graph, &m.annotations, 0);
        for v in 0..m.graph.node_count() {
            prop_assert!(pol[v] != UNREACHED, "AS {v} policy-unreachable");
            prop_assert!(pol[v] >= plain[v]);
        }
    }
}

//! Property-based tests for the hierarchy analysis: conservation laws of
//! traversal sets and sanity of the cover values, over arbitrary
//! connected graphs.

use proptest::prelude::*;
use topogen_graph::bfs::distances;
use topogen_graph::{Graph, NodeId};
use topogen_hierarchy::cover::{covers_all, traversal_node_weights, weighted_vertex_cover};
use topogen_hierarchy::linkvalue::{link_value_stats, link_values, PathMode};
use topogen_hierarchy::traversal::link_traversals;

fn arb_connected() -> impl Strategy<Value = Graph> {
    (3usize..22, any::<u64>()).prop_map(|(n, seed)| {
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
        for _ in 0..n / 2 {
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
    fn every_link_carries_its_own_pair(g in arb_connected()) {
        // An edge (a, b) always lies on the shortest path between a and
        // b themselves (weight 1 unless split with an equal-cost path —
        // impossible for adjacent nodes). So no traversal set is empty.
        let t = link_traversals(&g, &PathMode::Shortest);
        for (idx, link) in t.iter().enumerate() {
            let e = g.edges()[idx];
            let own = link.iter().find(|p| p.u == e.a && p.v == e.b);
            prop_assert!(own.is_some(), "link {e} missing its own pair");
            prop_assert!((own.unwrap().w - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn traversal_conservation(g in arb_connected()) {
        // Σ_links w(u,v,l) = d(u,v) for every pair.
        let t = link_traversals(&g, &PathMode::Shortest);
        let mut acc: std::collections::HashMap<(NodeId, NodeId), f64> = Default::default();
        for link in &t {
            for p in link {
                *acc.entry((p.u, p.v)).or_insert(0.0) += p.w;
            }
        }
        for ((u, v), total) in acc {
            let d = distances(&g, u)[v as usize] as f64;
            prop_assert!((total - d).abs() < 1e-6);
        }
    }

    #[test]
    fn covers_are_covers(g in arb_connected()) {
        let t = link_traversals(&g, &PathMode::Shortest);
        for link in &t {
            let w = traversal_node_weights(link);
            let (value, cover) = weighted_vertex_cover(link, &w);
            prop_assert!(covers_all(link, &cover));
            prop_assert!(value >= 0.0);
            // Cover value bounded by total node weight.
            let total: f64 = w.total();
            prop_assert!(value <= total + 1e-9);
        }
    }

    #[test]
    fn stats_consistent(g in arb_connected()) {
        let values = link_values(&g, &PathMode::Shortest);
        let s = link_value_stats(&values);
        prop_assert!(s.median <= s.max + 1e-12);
        prop_assert!(s.frac_above_005 >= s.frac_above_05);
        prop_assert!(values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn bridge_links_dominate_their_side(g in arb_connected()) {
        // The heaviest link value is at least the heaviest single-pair
        // contribution (1/n, from the link's own endpoints cover).
        let values = link_values(&g, &PathMode::Shortest);
        if !values.is_empty() {
            let max = values.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(max >= 0.99 / (2.0 * g.node_count() as f64));
        }
    }
}

//! Property-based tests for the graph substrate: invariants that every
//! algorithm in the workspace silently relies on, over arbitrary graphs.

use proptest::prelude::*;
use topogen_check::gen::{arb_bfs_graph, arb_connected, arb_graph};
use topogen_graph::apsp::all_pairs_distances;
use topogen_graph::bfs::{distances, distances_bounded, shortest_path_dag, DistScratch};
use topogen_graph::bfs_bitset::{self, BfsStats};
use topogen_graph::bicon::biconnected_components;
use topogen_graph::components::{components, largest_component};
use topogen_graph::flow::max_flow_unit;
use topogen_graph::io::{parse_edge_list, to_edge_list};
use topogen_graph::prune::core;
use topogen_graph::subgraph::ball;
use topogen_graph::tree::{Lca, RootedTree};
use topogen_graph::{NodeId, UNREACHED};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let total: usize = g.degrees().iter().sum();
        prop_assert_eq!(total, 2 * g.edge_count());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                prop_assert!(g.has_edge(w, v));
                prop_assert!(g.neighbors(w).contains(&v));
            }
        }
    }

    #[test]
    fn bfs_matches_apsp(g in arb_graph()) {
        let n = g.node_count();
        let apsp = all_pairs_distances(&g);
        for u in 0..n as NodeId {
            let d = distances(&g, u);
            for v in 0..n {
                prop_assert_eq!(d[v], apsp[(u as usize) * n + v]);
            }
        }
    }

    #[test]
    fn distance_triangle_inequality(g in arb_graph()) {
        let d0 = distances(&g, 0);
        for e in g.edges() {
            let (da, db) = (d0[e.a as usize], d0[e.b as usize]);
            if da != UNREACHED && db != UNREACHED {
                prop_assert!(da.abs_diff(db) <= 1, "edge {e} distances {da}/{db}");
            } else {
                // One endpoint reachable implies the other is too.
                prop_assert_eq!(da, db);
            }
        }
    }

    #[test]
    fn sigma_positive_on_reachable(g in arb_graph()) {
        let dag = shortest_path_dag(&g, 0);
        for v in g.nodes() {
            if dag.dist[v as usize] != UNREACHED {
                prop_assert!(dag.sigma[v as usize] >= 1.0);
                if v != 0 {
                    prop_assert!(!dag.preds[v as usize].is_empty());
                }
            } else {
                prop_assert_eq!(dag.sigma[v as usize], 0.0);
            }
        }
    }

    #[test]
    fn component_sizes_partition(g in arb_graph()) {
        let c = components(&g);
        prop_assert_eq!(c.sizes.iter().sum::<usize>(), g.node_count());
        let (lcc, map) = largest_component(&g);
        prop_assert_eq!(lcc.node_count(), *c.sizes.iter().max().unwrap());
        prop_assert_eq!(map.len(), lcc.node_count());
    }

    #[test]
    fn bicon_components_cover_edges(g in arb_graph()) {
        let b = biconnected_components(&g);
        prop_assert_eq!(b.edge_component.len(), g.edge_count());
        for &c in &b.edge_component {
            prop_assert!((c as usize) < b.component_count || g.edge_count() == 0);
        }
    }

    #[test]
    fn ball_is_monotone_in_radius(g in arb_graph()) {
        let mut prev = 0;
        for h in 0..6u32 {
            let (sub, map) = ball(&g, 0, h);
            prop_assert!(sub.node_count() >= prev);
            prop_assert_eq!(map.to_original(0), 0, "center is node 0");
            prev = sub.node_count();
        }
    }

    #[test]
    fn edge_list_roundtrip(g in arb_graph()) {
        let g2 = parse_edge_list(&to_edge_list(&g)).unwrap();
        prop_assert_eq!(g2.node_count(), g.node_count());
        prop_assert_eq!(g2.edges(), g.edges());
    }

    #[test]
    fn core_has_min_degree_two(g in arb_graph()) {
        let (c, _) = core(&g);
        for v in c.nodes() {
            prop_assert!(c.degree(v) >= 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bfs_tree_distance_upper_bounds_graph_distance(g in arb_connected()) {
        let t = RootedTree::bfs_tree(&g, 0);
        let lca = Lca::new(&t);
        let n = g.node_count();
        for u in 0..n as NodeId {
            let d = distances(&g, u);
            for v in (u + 1)..n as NodeId {
                let td = lca.tree_distance(u, v);
                prop_assert!(td >= d[v as usize], "tree dist {td} < graph dist {}", d[v as usize]);
            }
        }
    }

    #[test]
    fn bfs_tree_root_distances_exact(g in arb_connected()) {
        // BFS trees preserve distances from the root exactly.
        let t = RootedTree::bfs_tree(&g, 0);
        let d = distances(&g, 0);
        for v in g.nodes() {
            prop_assert_eq!(t.depth[v as usize], d[v as usize]);
        }
    }

    #[test]
    fn scratch_reuse_and_node_limit_match_scalar_oracle(
        g in arb_bfs_graph(),
        seeds in proptest::collection::vec(any::<u32>(), 1..6),
    ) {
        // One reused scratch across several (src, max_h, limit) runs on
        // sparse, dense, small-world and disconnected graphs: a run stops
        // after the first level whose reached set exceeds its limit, and
        // reuse never leaks state between centers.
        let n = g.node_count();
        let mut s = DistScratch::new();
        for seed in seeds {
            let src = (seed as usize % n) as NodeId;
            let max_h = if seed % 9 == 8 { u32::MAX } else { seed % 9 };
            let limit = if seed % 5 == 0 { usize::MAX } else { (seed / 45) as usize % (n + 1) };
            s.run_bounded(&g, src, max_h, limit);
            let want = distances_bounded(&g, src, max_h);
            let mut rings = vec![0usize; n + 1];
            for &d in want.iter().filter(|&&d| d != UNREACHED) {
                rings[d as usize] += 1;
            }
            let (mut stop, mut reached) = (0, rings[0]);
            while reached <= limit && rings[stop + 1] > 0 {
                stop += 1;
                reached += rings[stop];
            }
            for v in 0..n as NodeId {
                let d = want[v as usize];
                let expect = if d as usize <= stop { d } else { UNREACHED };
                prop_assert_eq!(s.dist(v), expect, "src {} h {} limit {} v {}", src, max_h, limit, v);
            }
            let mut order: Vec<NodeId> = (0..n as NodeId)
                .filter(|&v| want[v as usize] as usize <= stop)
                .collect();
            order.sort_by_key(|&v| (want[v as usize], v));
            prop_assert_eq!(s.ball_nodes_sorted(), order);
        }
    }

    #[test]
    fn multi_source_rings_match_scalar_oracle(
        g in arb_bfs_graph(),
        picks in proptest::collection::vec(any::<u32>(), 1..65),
        raw_h in 0u32..9,
    ) {
        // Sparse, dense, small-world and disconnected graphs of up to
        // 300 nodes, 1–64 sources (duplicates allowed), and radii that
        // stop mid-traversal or (8) not at all: lane passes run both
        // push and pull levels.
        let n = g.node_count();
        let max_h = if raw_h == 8 { n as u32 } else { raw_h };
        let sources: Vec<NodeId> = picks.iter().map(|&p| (p as usize % n) as NodeId).collect();
        let mut stats = BfsStats::default();
        let rings = bfs_bitset::multi_source_ring_counts(&g, &sources, max_h, &mut stats);
        for (k, &s) in sources.iter().enumerate() {
            let want = topogen_graph::bfs::ring_sizes(&g, s, max_h);
            prop_assert_eq!(&rings[k], &want, "lane {} source {}", k, s);
        }
        prop_assert!(stats.pull_passes <= stats.frontier_passes);
    }

    #[test]
    fn menger_flow_bounded_by_min_degree(g in arb_connected()) {
        let n = g.node_count() as NodeId;
        let (s, t) = (0, n - 1);
        if s != t {
            let f = max_flow_unit(&g, s, t);
            prop_assert!(f <= g.degree(s).min(g.degree(t)) as u64);
            // Connected: at least one path.
            prop_assert!(f >= 1);
        }
    }

    #[test]
    fn flow_is_symmetric(g in arb_connected()) {
        let n = g.node_count() as NodeId;
        if n >= 2 {
            prop_assert_eq!(max_flow_unit(&g, 0, n - 1), max_flow_unit(&g, n - 1, 0));
        }
    }
}

#[test]
fn lane_passes_take_both_directions_across_bfs_graphs() {
    // The generator behind the lane property above must reach both
    // directions: some pass runs bottom-up, some level top-down.
    let mut stats = BfsStats::default();
    for seed in 0..32u64 {
        let g = topogen_check::gen::bfs_graph(seed);
        let n = g.node_count() as NodeId;
        let sources: Vec<NodeId> = (0..64).map(|k| (k * 7919) % n).collect();
        bfs_bitset::multi_source_ring_counts(&g, &sources, n, &mut stats);
    }
    assert!(stats.pull_passes > 0);
    assert!(stats.pull_passes < stats.frontier_passes);
}

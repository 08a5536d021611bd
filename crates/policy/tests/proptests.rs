//! Property-based tests for policy routing: valley-free invariants over
//! randomly annotated graphs.
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use topogen_graph::bfs::{distances, shortest_path_dag};
use topogen_graph::{Graph, NodeId, UNREACHED};
use topogen_policy::balls::{policy_ball, policy_ball_nodes};
use topogen_policy::bgp::routing_table;
use topogen_policy::bgp_sim::routes_to;
use topogen_policy::gao::{infer_relationships, GaoConfig};
use topogen_policy::rel::{AsAnnotations, Relationship};
use topogen_policy::valley::{
    policy_distances, policy_shortest_path_dag, state, PHASE_DOWN, PHASE_UP,
};

/// A connected graph with random per-edge relationships.
fn arb_annotated() -> impl Strategy<Value = (Graph, AsAnnotations)> {
    (3usize..25, any::<u64>()).prop_map(|(n, seed)| {
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
        let g = Graph::from_edges(n, edges);
        let rels: Vec<Relationship> = g
            .edges()
            .iter()
            .map(|_| match next() % 4 {
                0 => Relationship::CustomerOfB,
                1 => Relationship::ProviderOfB,
                2 => Relationship::Peer,
                _ => Relationship::Sibling,
            })
            .collect();
        let ann = AsAnnotations::new(&g, rels);
        (g, ann)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn policy_never_beats_shortest_paths((g, ann) in arb_annotated()) {
        for src in 0..g.node_count() as NodeId {
            let plain = distances(&g, src);
            let pol = policy_distances(&g, &ann, src);
            for v in 0..g.node_count() {
                if pol[v] != UNREACHED {
                    prop_assert!(pol[v] >= plain[v]);
                }
            }
            prop_assert_eq!(pol[src as usize], 0);
        }
    }

    #[test]
    fn policy_distances_symmetric((g, ann) in arb_annotated()) {
        let n = g.node_count();
        let fields: Vec<Vec<u32>> = (0..n as NodeId)
            .map(|s| policy_distances(&g, &ann, s))
            .collect();
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    fields[u][v], fields[v][u],
                    "asymmetry between {} and {}", u, v
                );
            }
        }
    }

    #[test]
    fn neighbors_reachable_one_hop_when_allowed((g, ann) in arb_annotated()) {
        // Every neighbor is reachable in exactly 1 hop: the first step of
        // a valley-free walk may be up, peer, down or sibling.
        for v in 0..g.node_count() as NodeId {
            let d = policy_distances(&g, &ann, v);
            for &w in g.neighbors(v) {
                prop_assert_eq!(d[w as usize], 1);
            }
        }
    }

    #[test]
    fn all_sibling_dag_is_the_plain_dag((g, _) in arb_annotated()) {
        // Sibling links never leave the ascending phase, so the
        // valley-free DAG is the plain one on the ascending states.
        let ann = AsAnnotations::new(&g, vec![Relationship::Sibling; g.edge_count()]);
        for src in g.nodes() {
            let plain = shortest_path_dag(&g, src);
            let pol = policy_shortest_path_dag(&g, &ann, src);
            prop_assert_eq!(&pol.node_dist, &plain.dist);
            let order: Vec<NodeId> = pol.order.iter().map(|&s| pol.node_of(s)).collect();
            prop_assert_eq!(&order, &plain.order);
            for v in g.nodes() {
                let up = state(v, PHASE_UP) as usize;
                let preds: Vec<NodeId> = pol.preds[up].iter().map(|&s| pol.node_of(s)).collect();
                prop_assert_eq!(&preds, &plain.preds[v as usize]);
                prop_assert_eq!(pol.sigma[up].to_bits(), plain.sigma[v as usize].to_bits());
                prop_assert_eq!(pol.dist[state(v, PHASE_DOWN) as usize], UNREACHED);
            }
        }
    }

    #[test]
    fn sigma_consistent_with_reachability((g, ann) in arb_annotated()) {
        let dag = policy_shortest_path_dag(&g, &ann, 0);
        for v in 0..g.node_count() as NodeId {
            if dag.node_dist[v as usize] == UNREACHED {
                prop_assert_eq!(dag.sigma_to(v), 0.0);
            } else {
                prop_assert!(dag.sigma_to(v) >= 1.0);
            }
        }
    }

    #[test]
    fn policy_balls_nested((g, ann) in arb_annotated()) {
        let mut prev: Vec<NodeId> = Vec::new();
        for h in 0..5u32 {
            let nodes = policy_ball_nodes(&g, &ann, 0, h);
            for p in &prev {
                prop_assert!(nodes.contains(p), "ball lost node {p} at h={h}");
            }
            prev = nodes;
        }
    }

    #[test]
    fn policy_ball_links_subset_of_graph((g, ann) in arb_annotated()) {
        let (ball, map) = policy_ball(&g, &ann, 0, 3);
        for e in ball.edges() {
            let (u, v) = (map.to_original(e.a), map.to_original(e.b));
            prop_assert!(g.has_edge(u, v), "phantom ball link ({u},{v})");
        }
    }

    #[test]
    fn routing_table_paths_are_valid_walks((g, ann) in arb_annotated()) {
        let table = routing_table(&g, &ann, 0);
        for path in &table {
            prop_assert_eq!(path[0], 0);
            for w in path.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
            // The path length matches the policy distance (shortest).
            let d = policy_distances(&g, &ann, 0);
            let dest = *path.last().unwrap();
            prop_assert_eq!(path.len() as u32 - 1, d[dest as usize]);
        }
    }

    #[test]
    fn bgp_sim_agrees_with_valley_free_reachability((g, ann) in arb_annotated()) {
        for d in 0..g.node_count() as NodeId {
            let vf = policy_distances(&g, &ann, d);
            let bgp = routes_to(&g, &ann, d);
            for u in 0..g.node_count() {
                prop_assert_eq!(
                    vf[u] == UNREACHED,
                    bgp.len[u] == UNREACHED,
                    "reachability mismatch {}→{}", u, d
                );
                if vf[u] != UNREACHED {
                    prop_assert!(
                        bgp.len[u] >= vf[u],
                        "BGP {}→{} shorter than valley-free", u, d
                    );
                }
            }
        }
    }

    #[test]
    fn gao_always_produces_full_annotation((g, ann) in arb_annotated()) {
        let table = routing_table(&g, &ann, 0);
        let inferred = infer_relationships(&g, &table, &GaoConfig::default());
        let (pc, peer, sib) = inferred.counts();
        prop_assert_eq!(pc + peer + sib, g.edge_count());
    }
}

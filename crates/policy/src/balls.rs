//! Policy-induced ball growing (Appendix E).
//!
//! "In computing a policy-induced ball of radius h, we include all nodes
//! to whom the policy path from the center of the ball is less than or
//! equal to h, and only include links that lie on policy-compliant paths
//! to those nodes."

use crate::rel::AsAnnotations;
use crate::valley::policy_shortest_path_dag;
use topogen_graph::bfs::PathDag;
use topogen_graph::subgraph::SubgraphMap;
use topogen_graph::{Graph, GraphBuilder, NodeId, UNREACHED};

/// Nodes within policy distance `h` of `center`, sorted by (distance, id).
pub fn policy_ball_nodes(g: &Graph, ann: &AsAnnotations, center: NodeId, h: u32) -> Vec<NodeId> {
    let dag = policy_shortest_path_dag(g, ann, center);
    let mut nodes: Vec<NodeId> = (0..g.node_count() as NodeId)
        .filter(|&v| dag.node_dist[v as usize] <= h)
        .collect();
    nodes.sort_by_key(|&v| (dag.node_dist[v as usize], v));
    nodes
}

/// The policy-induced ball of radius `h` around `center`: the included
/// nodes plus only the links lying on shortest policy-compliant paths
/// from the center to those nodes. Node 0 of the result is the center.
pub fn policy_ball(g: &Graph, ann: &AsAnnotations, center: NodeId, h: u32) -> (Graph, SubgraphMap) {
    let dag = policy_shortest_path_dag(g, ann, center);
    policy_ball_from_dag(g, &dag, h)
}

/// Ball extraction from a precomputed DAG (lets callers grow radii
/// without re-running the BFS).
pub fn policy_ball_from_dag(g: &Graph, dag: &PathDag, h: u32) -> (Graph, SubgraphMap) {
    let n = g.node_count();
    let mut keep: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| dag.node_dist[v as usize] <= h)
        .collect();
    keep.sort_by_key(|&v| (dag.node_dist[v as usize], v));
    let mut idx = vec![u32::MAX; n];
    for (i, &v) in keep.iter().enumerate() {
        idx[v as usize] = i as u32;
    }
    // Collect state-DAG edges whose endpoints are both within the ball:
    // walking predecessors from each included node's terminal states
    // marks exactly the links on shortest policy paths. A simple reverse
    // reachability over the state DAG suffices: mark terminal states of
    // included nodes, propagate marks to predecessors, and record each
    // traversed (pred, succ) as an underlying edge.
    let ns = dag.dist.len();
    let mut marked = vec![false; ns];
    for &v in &keep {
        for s in dag.terminal_states(v) {
            marked[s as usize] = true;
        }
    }
    // States in reverse BFS order: propagate.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for &s in dag.order.iter().rev() {
        if !marked[s as usize] || dag.dist[s as usize] == UNREACHED {
            continue;
        }
        let v = dag.node_of(s);
        for &p in &dag.preds[s as usize] {
            marked[p as usize] = true;
            let u = dag.node_of(p);
            edges.push((u, v));
        }
    }
    let mut b = GraphBuilder::new(keep.len());
    for (u, v) in edges {
        let (iu, iv) = (idx[u as usize], idx[v as usize]);
        debug_assert!(iu != u32::MAX && iv != u32::MAX);
        if iu != iv {
            b.add_edge(iu, iv);
        }
    }
    (b.build(), SubgraphMap::from_originals(keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::annotations_from_pairs;

    /// Figure 15's graph with the orientation that reproduces the paper's
    /// stated ball memberships (see `valley::tests::figure15_paper`).
    fn figure15() -> (Graph, AsAnnotations) {
        let g = Graph::from_edges(
            8,
            vec![
                (0, 1),
                (0, 2),
                (0, 7),
                (1, 4),
                (2, 3),
                (3, 4),
                (4, 6),
                (4, 5),
            ],
        );
        let ann = annotations_from_pairs(
            &g,
            &[
                (0, 1),
                (0, 2),
                (0, 7),
                (4, 1),
                (2, 3),
                (3, 4),
                (4, 6),
                (4, 5),
            ],
            &[],
            &[],
        );
        (g, ann)
    }

    #[test]
    fn figure15_radius_3_membership() {
        // Appendix E: "a ball of radius 3 includes nodes A, B, C, D, E, G
        // and H" — in our ids {0,1,2,3,4,6,7} — "and links (A,B), (A,C),
        // (A,H), (B,E), (C,D) and (E,G)". With the recoverable
        // orientation, E is reached through D (A→C→D→E), so the link set
        // is (A,B),(A,C),(A,H),(C,D),(D,E) and E's children enter at 4.
        let (g, ann) = figure15();
        let (ball, map) = policy_ball(&g, &ann, 0, 3);
        let mut members: Vec<NodeId> = map.originals().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3, 4, 7]);
        assert_eq!(ball.edge_count(), 5);
    }

    #[test]
    fn figure15_radius_4_adds_leaves() {
        let (g, ann) = figure15();
        let (ball, map) = policy_ball(&g, &ann, 0, 4);
        let mut members: Vec<NodeId> = map.originals().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Adds links (E,F) and (E,G).
        assert_eq!(ball.edge_count(), 7);
    }

    #[test]
    fn ball_excludes_off_path_links() {
        // Triangle: 0 provider of 1 and 2; 1–2 peer. Ball(0, 1) includes
        // nodes {0,1,2} but NOT the peer link 1–2 (it lies on no shortest
        // policy path from 0).
        let g = Graph::from_edges(3, vec![(0, 1), (0, 2), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (0, 2)], &[(1, 2)], &[]);
        let (ball, _) = policy_ball(&g, &ann, 0, 1);
        assert_eq!(ball.node_count(), 3);
        assert_eq!(ball.edge_count(), 2);
    }

    #[test]
    fn radius_zero_is_center_only() {
        let (g, ann) = figure15();
        let (ball, map) = policy_ball(&g, &ann, 3, 0);
        assert_eq!(ball.node_count(), 1);
        assert_eq!(map.to_original(0), 3);
    }

    #[test]
    fn policy_ball_nodes_sorted_by_distance() {
        let (g, ann) = figure15();
        let nodes = policy_ball_nodes(&g, &ann, 0, 4);
        let dag = crate::valley::policy_shortest_path_dag(&g, &ann, 0);
        let dists: Vec<u32> = nodes.iter().map(|&v| dag.node_dist[v as usize]).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(nodes[0], 0);
    }

    #[test]
    fn unreachable_nodes_never_included() {
        // 0 prov 1, 2 prov 1: node 2 invisible from 0 at any radius.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        let ann = annotations_from_pairs(&g, &[(0, 1), (2, 1)], &[], &[]);
        let (ball, map) = policy_ball(&g, &ann, 0, 10);
        assert_eq!(ball.node_count(), 2);
        assert!(map.originals().iter().all(|&v| v != 2));
    }
}

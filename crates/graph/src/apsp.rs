//! All-pairs shortest paths over small (sub)graphs.
//!
//! Several per-ball computations — the distortion heuristic's "center"
//! selection (paper footnote 14) and pairwise statistics — need all-pairs
//! hop distances on ball subgraphs. Dense Floyd–Warshall would be O(n³);
//! repeated BFS is O(n·m) and wins on the sparse graphs at hand.

use crate::bfs::distances;
use crate::{Graph, NodeId, UNREACHED};

/// All-pairs hop distance matrix, row-major: `d[u * n + v]`.
/// `UNREACHED` marks disconnected pairs.
pub fn all_pairs_distances(g: &Graph) -> Vec<u32> {
    let n = g.node_count();
    let mut d = vec![UNREACHED; n * n];
    for u in 0..n as NodeId {
        let du = distances(g, u);
        d[(u as usize) * n..(u as usize + 1) * n].copy_from_slice(&du);
    }
    d
}

/// Node betweenness centrality (Brandes' algorithm, unweighted). Returns
/// the per-node betweenness (sum over ordered source–target pairs of the
/// fraction of shortest paths through the node). Used to pick ball
/// "centers" for the distortion metric.
///
/// Allocation-free per source: `dist`/`sigma`/`delta` live across
/// sources and only the previous source's reached nodes are reset;
/// `order` doubles as the BFS queue. Predecessor lists are not stored —
/// in the accumulation, `w`'s predecessors are its neighbours one hop
/// closer to the source. Every `delta[v]` and `bc[w]` receives the same
/// addends in the same order as the textbook per-source DAG loop, so
/// the result is bit-identical to it.
pub fn betweenness(g: &Graph) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0f64; n];
    let mut dist = vec![UNREACHED; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    for s in 0..n as NodeId {
        for &v in &order {
            dist[v as usize] = UNREACHED;
            sigma[v as usize] = 0.0;
            delta[v as usize] = 0.0;
        }
        order.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        order.push(s);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let du = dist[u as usize];
            for &v in g.neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = du + 1;
                    order.push(v);
                }
                if dist[v as usize] == du + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        // Accumulate in reverse BFS order. A node at distance 1 has the
        // source as its only predecessor, whose `delta` is never read.
        for &w in order.iter().rev() {
            let dw = dist[w as usize];
            if dw >= 2 {
                let (sigma_w, delta_w) = (sigma[w as usize], delta[w as usize]);
                for &v in g.neighbors(w) {
                    if dist[v as usize] + 1 == dw {
                        delta[v as usize] += sigma[v as usize] / sigma_w * (1.0 + delta_w);
                    }
                }
            }
            if w != s {
                bc[w as usize] += delta[w as usize];
            }
        }
    }
    bc
}

/// The node with maximum betweenness — the paper's "center" of a ball:
/// "the node through which the highest number of pairs traverse"
/// (footnote 14). Ties break to the lowest id. Returns `None` for the
/// empty graph.
pub fn betweenness_center(g: &Graph) -> Option<NodeId> {
    let bc = betweenness(g);
    bc.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
        .map(|(i, _)| i as NodeId)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn apsp_on_path() {
        let g = Graph::from_edges(4, (0..3).map(|i| (i, i + 1)));
        let d = all_pairs_distances(&g);
        let n = 4;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(d[u * n + v], (u as i64 - v as i64).unsigned_abs() as u32);
            }
        }
    }

    #[test]
    fn apsp_disconnected() {
        let g = Graph::from_edges(3, vec![(0, 1)]);
        let d = all_pairs_distances(&g);
        assert_eq!(d[2], UNREACHED);
        assert_eq!(d[2 * 3 + 2], 0);
    }

    #[test]
    fn betweenness_path_middle_highest() {
        let g = Graph::from_edges(5, (0..4).map(|i| (i, i + 1)));
        let bc = betweenness(&g);
        // Middle node lies on the most shortest paths.
        assert!(bc[2] > bc[1]);
        assert!(bc[1] > bc[0]);
        assert_eq!(bc[0], 0.0);
        assert_eq!(betweenness_center(&g), Some(2));
    }

    #[test]
    fn betweenness_star_center() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        let bc = betweenness(&g);
        // Ordered pairs among 4 leaves = 12, all through the hub.
        assert!((bc[0] - 12.0).abs() < 1e-9);
        for v in 1..5 {
            assert_eq!(bc[v], 0.0);
        }
        assert_eq!(betweenness_center(&g), Some(0));
    }

    #[test]
    fn betweenness_cycle_symmetric() {
        let g = Graph::from_edges(6, (0..6).map(|i| (i, (i + 1) % 6)));
        let bc = betweenness(&g);
        for v in 1..6 {
            assert!(
                (bc[v] - bc[0]).abs() < 1e-9,
                "cycle betweenness must be uniform"
            );
        }
    }

    #[test]
    fn betweenness_equal_cost_split() {
        // 4-cycle: paths between opposite nodes split over both sides.
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bc = betweenness(&g);
        // By symmetry all nodes have the same betweenness: each pair of
        // opposite nodes contributes 1/2 to each intermediate node, and
        // there are 2 ordered pairs through each node → 1.0.
        for v in 0..4 {
            assert!((bc[v] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn center_of_empty_graph() {
        assert_eq!(betweenness_center(&Graph::empty(0)), None);
    }
}

//! Core extraction: recursive degree-1 pruning.
//!
//! The paper computes link values on the router graph's *core*, "generated
//! from the original RL topology by recursively removing degree 1 nodes"
//! (footnote 29). This module implements that reduction.

use crate::subgraph::{induced_subgraph, SubgraphMap};
use crate::{Graph, NodeId};

/// Recursively remove nodes of degree at most 1 — leaves, then the
/// nodes that become leaves — calling `fold(v, parent)` as each goes.
/// `parent` is `v`'s one neighbour still present, or `None` when none
/// is left (an isolated node, or the last node of a tree component).
/// A node goes only after all but one of its neighbours, so everything
/// that folds into it has folded by then. Returns which nodes were
/// removed; the rest induce the 2-core.
pub fn peel_leaves(g: &Graph, mut fold: impl FnMut(NodeId, Option<NodeId>)) -> Vec<bool> {
    let n = g.node_count();
    let mut deg: Vec<usize> = g.degrees();
    let mut removed = vec![false; n];
    let mut stack: Vec<NodeId> = (0..n as NodeId).filter(|&v| deg[v as usize] <= 1).collect();
    while let Some(v) = stack.pop() {
        if removed[v as usize] {
            continue;
        }
        removed[v as usize] = true;
        let mut parent = None;
        for &w in g.neighbors(v) {
            if !removed[w as usize] {
                parent = Some(w);
                deg[w as usize] -= 1;
                if deg[w as usize] <= 1 {
                    stack.push(w);
                }
            }
        }
        fold(v, parent);
    }
    removed
}

/// Recursively remove degree-1 nodes until none remain, returning the core
/// subgraph and the mapping back to original node ids. Isolated nodes
/// (degree 0 in the original graph) are also dropped.
pub fn core(g: &Graph) -> (Graph, SubgraphMap) {
    let removed = peel_leaves(g, |_, _| {});
    let keep: Vec<NodeId> = (0..g.node_count() as NodeId)
        .filter(|&v| !removed[v as usize])
        .collect();
    induced_subgraph(g, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_prunes_to_nothing() {
        // Any tree collapses entirely under recursive leaf removal.
        let g = Graph::from_edges(7, vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
        let (c, _) = core(&g);
        assert_eq!(c.node_count(), 0);
    }

    #[test]
    fn cycle_survives() {
        let g = Graph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)));
        let (c, map) = core(&g);
        assert_eq!(c.node_count(), 5);
        assert_eq!(c.edge_count(), 5);
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn cycle_with_tails_prunes_tails() {
        // Triangle 0-1-2 with a path 2-3-4 hanging off.
        let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let (c, map) = core(&g);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.edge_count(), 3);
        let mut orig: Vec<NodeId> = map.originals().to_vec();
        orig.sort_unstable();
        assert_eq!(orig, vec![0, 1, 2]);
    }

    #[test]
    fn peel_reports_each_node_once_with_its_remaining_neighbour() {
        // Triangle 0-1-2, path 2-3-4, and an isolated node 5.
        let g = Graph::from_edges(6, vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let mut folds = Vec::new();
        let removed = peel_leaves(&g, |v, parent| folds.push((v, parent)));
        assert_eq!(removed, vec![false, false, false, true, true, true]);
        folds.sort_unstable();
        assert_eq!(folds, vec![(3, Some(2)), (4, Some(3)), (5, None)]);
    }

    #[test]
    fn isolated_nodes_dropped() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0)]);
        let (c, _) = core(&g);
        assert_eq!(c.node_count(), 3);
    }

    #[test]
    fn core_is_idempotent() {
        let g = Graph::from_edges(
            8,
            vec![
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
                (6, 7),
            ],
        );
        let (c1, _) = core(&g);
        let (c2, _) = core(&c1);
        assert_eq!(c1.node_count(), c2.node_count());
        assert_eq!(c1.edge_count(), c2.edge_count());
        // Every node in the core has degree >= 2.
        assert!(c1.nodes().all(|v| c1.degree(v) >= 2));
    }
}
